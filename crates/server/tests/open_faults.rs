//! What opening lobd costs in memory it touches. `LobdService::open`
//! builds a 4,096-frame (32 MiB) buffer pool; a frame gets its page at
//! its first install, so opening touches almost none of it. A pool that
//! allocated and zero-filled every frame's page at construction took
//! about 8,400 minor faults to open. A test binary of its own, so no
//! other test's threads fault pages into the count.
#![cfg(target_os = "linux")]

use pglo_server::LobdService;

/// This process's minor page faults so far (`minflt`, field 10 of
/// `/proc/self/stat`).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // Fields 3 on follow the parenthesised command name, which may hold
    // spaces.
    let after_comm = &stat[stat.rfind(')').unwrap() + 2..];
    after_comm.split(' ').nth(7).unwrap().parse().unwrap()
}

#[test]
fn opening_lobd_faults_in_under_a_quarter_of_its_pool() {
    let dir = tempfile::tempdir().unwrap();
    let before = minor_faults();
    let service = LobdService::open(dir.path()).unwrap();
    let faults = minor_faults() - before;
    // 4,096 frames of 8 KiB are 8,192 host pages.
    assert!(faults < 2048, "opening lobd took {faults} minor faults");
    drop(service);
}
