//! An interactive POSTQUEL shell over a pglo database.
//!
//! ```sh
//! cargo run --example postquel_repl [db-dir]
//! ```
//!
//! Statements end with `;`. Try:
//!
//! ```text
//! create large type image (input = image_in, output = image_out,
//!                          storage = fchunk, compression = rle);
//! create EMP (name = text, salary = int4, picture = image);
//! append EMP (name = "Joe", salary = 100, picture = "64x48:1"::image);
//! retrieve (EMP.all) sort by salary desc;
//! retrieve (n = count(), payroll = sum(EMP.salary)) from EMP;
//! \d            -- list classes
//! \types        -- list types
//! \funcs        -- list functions
//! \q            -- quit
//! ```

use pglo::prelude::*;
use std::io::{BufRead, Write as _};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arg = std::env::args().nth(1);
    let (db, _tmp): (Database, Option<tempfile::TempDir>) = match arg {
        Some(path) => (Database::open(path)?, None),
        None => {
            let tmp = tempfile::tempdir()?;
            println!("(no db-dir given; using a throwaway database at {:?})", tmp.path());
            (Database::open(tmp.path())?, Some(tmp))
        }
    };
    println!("pglo POSTQUEL shell — end statements with ';', \\q to quit\n");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        let prompt = if buffer.is_empty() { "pglo=> " } else { "pglo-> " };
        print!("{prompt}");
        std::io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let trimmed = line.trim();
        // Backslash meta-commands.
        if buffer.is_empty() && trimmed.starts_with('\\') {
            match trimmed {
                "\\q" => break,
                "\\d" => {
                    for name in db.env().catalog().class_names() {
                        let meta = db.env().catalog().get(&name).unwrap();
                        let schema = meta.props.get("schema").cloned().unwrap_or_default();
                        println!("  {name} ({schema})");
                        for (key, value) in &meta.props {
                            if let Some(iname) = key.strip_prefix("index:") {
                                let expr = value.split_once('|').map(|x| x.1).unwrap_or("?");
                                println!("    index {iname} on ({expr})");
                            }
                        }
                    }
                }
                "\\types" => {
                    for t in db.types().names() {
                        let tag = if db.types().is_large(&t) { " (large ADT)" } else { "" };
                        println!("  {t}{tag}");
                    }
                }
                "\\funcs" => {
                    for (name, arity, sig) in db.funcs().list() {
                        println!("  {name}/{arity}: {sig}");
                    }
                }
                other => println!("unknown meta-command {other} (try \\d \\types \\funcs \\q)"),
            }
            continue;
        }
        buffer.push_str(&line);
        if !buffer.contains(';') {
            continue;
        }
        // Execute every complete statement in the buffer.
        let chunks: Vec<String> = buffer.split(';').map(str::to_string).collect();
        let (complete, rest) = chunks.split_at(chunks.len() - 1);
        buffer = rest[0].trim_start().to_string();
        for stmt in complete {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            match db.run(stmt) {
                Ok(result) => print!("{}", result.to_table()),
                Err(e) => println!("!! {e}"),
            }
        }
    }
    println!("bye.");
    Ok(())
}
