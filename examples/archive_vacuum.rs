//! Archive vacuuming: history migrates to the WORM jukebox.
//!
//! The POSTGRES storage system's promise was that no-overwrite history is
//! not just kept but *moved to cheaper media* over time. This example edits
//! a class across several epochs, migrates the superseded versions to an
//! archive class on the write-once optical jukebox, and shows time travel
//! reconstructing every epoch from live heap + archive together.
//!
//! ```sh
//! cargo run --example archive_vacuum
//! ```

use pglo::heap::{archive_vacuum, no_index, scan_as_of_with_archive, Heap};
use pglo::prelude::*;
use pglo::smgr::StorageManager;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = tempfile::tempdir()?;
    let env = StorageEnv::open(dir.path())?;
    let live = Heap::create(&env, "ACCOUNTS", env.disk_id(), Default::default())?;
    // The archive class lives on the WORM manager (§7's pairing).
    let archive = Heap::create_anonymous(&env, env.worm_id())?;

    println!("== three epochs of edits on the live class (magnetic disk) ==");
    let t1 = env.begin();
    let alice = live.insert(&t1, b"alice: 100")?;
    let bob = live.insert(&t1, b"bob:   250")?;
    let ts1 = t1.commit();
    println!("epoch {ts1}: opened alice=100, bob=250");

    let t2 = env.begin();
    let alice2 = live.update(&t2, alice, b"alice: 175")?;
    let ts2 = t2.commit();
    println!("epoch {ts2}: alice deposits (175)");

    let t3 = env.begin();
    live.update(&t3, alice2, b"alice:  25")?;
    live.delete(&t3, bob)?;
    let ts3 = t3.commit();
    println!("epoch {ts3}: alice withdraws (25); bob closes the account\n");

    let raw_count = live.scan(Visibility::Raw).count();
    println!("live heap holds {raw_count} physical versions before archiving");

    println!("\n== migrate dead versions to the WORM archive ==");
    let at = env.begin();
    let (archived, reclaimed) = archive_vacuum(&live, &archive, &at, ts3, no_index)?;
    at.commit();
    env.pool().flush_all()?;
    env.worm_smgr().sync_all()?;
    println!("archived {archived} versions, reclaimed {reclaimed} from the live heap");
    println!(
        "live heap now holds {} version(s); archive occupies {} bytes on the jukebox",
        live.scan(Visibility::Raw).count(),
        archive.size_bytes()?
    );
    // The archive is on write-once media: its pages are burned.
    let probe = pglo::pages::alloc_page();
    match env.worm_smgr().write(archive.rel(), 0, &probe) {
        Err(e) => println!("(archive immutable, as it should be: {e})"),
        Ok(()) => unreachable!(),
    }

    println!("\n== time travel reconstructs every epoch from live + archive ==");
    for ts in [ts1, ts2, ts3] {
        let mut rows = scan_as_of_with_archive(&live, &archive, ts)?;
        rows.sort();
        let rendered: Vec<String> =
            rows.iter().map(|r| String::from_utf8_lossy(r).into_owned()).collect();
        println!("as of {ts}: {rendered:?}");
    }
    Ok(())
}
