//! Time travel over large objects (§6.3/§6.4): a versioned document store.
//!
//! Edits a "contract" large object across several transactions, then reads
//! every historical version back with as-of opens, demonstrates that an
//! aborted transaction leaves no trace, and finally vacuums history away.
//!
//! ```sh
//! cargo run --example time_travel
//! ```

use pglo::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = tempfile::tempdir()?;
    let env = StorageEnv::open(dir.path())?;
    let store = LoStore::new(Arc::clone(&env)).unwrap();

    // Both chunked implementations support time travel; use v-segment so
    // each edit is an individually compressed segment.
    println!("== versioned edits to one large object (v-segment, LZ77) ==");
    let t0 = env.begin();
    let contract = store.create(&t0, &LoSpec::vsegment(CodecKind::Lz77))?;
    {
        let mut h = store.open(&t0, contract, OpenMode::ReadWrite)?;
        h.write(b"ARTICLE 1: the party of the first part pays 100 coins.\n")?;
        h.write(b"ARTICLE 2: delivery within 30 days.\n")?;
        h.close()?;
    }
    let ts_v1 = t0.commit();
    println!("v1 committed at logical time {ts_v1}");

    let t1 = env.begin();
    {
        let mut h = store.open(&t1, contract, OpenMode::ReadWrite)?;
        // Replace the number "100" (it starts at byte 44) with "999".
        h.write_at(44, b"999")?;
        h.close()?;
    }
    let ts_v2 = t1.commit();
    println!("v2 committed at logical time {ts_v2} (price changed)");

    // A renegotiation that falls through: aborted, must leave no trace.
    let t2 = env.begin();
    {
        let mut h = store.open(&t2, contract, OpenMode::ReadWrite)?;
        h.write_at(0, b"VOIDED! ")?;
        h.close()?;
    }
    t2.abort();
    println!("a third edit was aborted\n");

    println!("== reading history ==");
    for (label, ts) in [("as of v1", ts_v1), ("as of v2", ts_v2)] {
        let mut h = store.open_as_of(contract, ts)?;
        let text = String::from_utf8_lossy(&h.read_to_vec()?).into_owned();
        let first_line = text.lines().next().unwrap_or_default().to_string();
        println!("{label}: {first_line}");
    }
    {
        let t = env.begin();
        let mut h = store.open(&t, contract, OpenMode::ReadOnly)?;
        let text = String::from_utf8_lossy(&h.read_to_vec()?).into_owned();
        println!("current : {}", text.lines().next().unwrap_or_default());
        assert!(!text.contains("VOIDED"), "aborted edit must be invisible");
        h.close()?;
        t.commit();
    }

    println!("\n== physical storage holds every version (no-overwrite) ==");
    let before = store.storage_breakdown(contract)?;
    println!(
        "data {} B, segment map {} B, index {} B",
        before.data_bytes, before.map_bytes, before.index_bytes
    );

    println!("\n== the same machinery works at the query level ==");
    let db_dir = tempfile::tempdir()?;
    let db = Database::open(db_dir.path())?;
    db.run("create LEDGER (entry = text, amount = int4)")?;
    db.run(r#"append LEDGER (entry = "opening", amount = 1000)"#)?;
    let ts_a = db.env().txns().current_timestamp();
    db.run(r#"replace LEDGER (amount = 750) where LEDGER.entry = "opening""#)?;
    let now = db.run(r#"retrieve (LEDGER.amount) where LEDGER.entry = "opening""#)?;
    let then = db
        .run(&format!(r#"retrieve (LEDGER.amount) where LEDGER.entry = "opening" as of {ts_a}"#))?;
    println!("LEDGER amount now: {:?}, as of {ts_a}: {:?}", now.rows[0][0], then.rows[0][0]);

    Ok(())
}
