//! Exports must be atomic: a reader polling the export directory while
//! a writer re-exports in a loop must never observe a partial file —
//! every read either finds no file yet or a complete, parseable one.

use std::sync::atomic::{AtomicBool, Ordering};

use sarn_durable::TempDir;
use sarn_obs::{export_all, parse_prometheus, validate_json, Registry, JSON_FILE, PROMETHEUS_FILE};

#[test]
fn concurrent_reads_never_see_a_torn_export() {
    sarn_obs::set_enabled(true);
    let c = Registry::global().counter("obs_torn_writes_total");
    let h = Registry::global().histogram("obs_torn_seconds");
    let dir = TempDir::new("obs-torn-rw").expect("temp dir");
    let stop = &AtomicBool::new(false);

    std::thread::scope(|s| {
        let reader_dir = dir.path();
        let reader = s.spawn(move || {
            let mut json_reads = 0u32;
            let mut prom_reads = 0u32;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(text) = std::fs::read_to_string(reader_dir.join(JSON_FILE)) {
                    validate_json(&text).expect("JSON export read mid-rewrite must be complete");
                    json_reads += 1;
                }
                if let Ok(text) = std::fs::read_to_string(reader_dir.join(PROMETHEUS_FILE)) {
                    parse_prometheus(&text)
                        .expect("Prometheus export read mid-rewrite must be complete");
                    prom_reads += 1;
                }
            }
            (json_reads, prom_reads)
        });

        for i in 0..200 {
            c.inc();
            h.observe(i as f64 * 1e-4);
            export_all(dir.path()).expect("export");
        }
        stop.store(true, Ordering::Relaxed);
        let (json_reads, prom_reads) = reader.join().expect("reader thread");
        // The loop is long enough that the reader overlaps many rewrites.
        assert!(json_reads > 0, "reader never observed the JSON export");
        assert!(
            prom_reads > 0,
            "reader never observed the Prometheus export"
        );
    });

    // No temporary sibling files left behind.
    for entry in std::fs::read_dir(dir.path()).expect("export dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(!name.contains(".tmp"), "leftover temp file: {name}");
    }
}

#[test]
fn exports_parse_and_roundtrip_key_series() {
    sarn_obs::set_enabled(true);
    Registry::global()
        .counter("obs_torn_roundtrip_total")
        .add(3);
    let dir = TempDir::new("obs-torn-roundtrip").expect("temp dir");
    export_all(dir.path()).expect("export");
    let prom = std::fs::read_to_string(dir.path().join(PROMETHEUS_FILE)).expect("prom file");
    let samples = parse_prometheus(&prom).expect("parse prom");
    assert!(samples
        .iter()
        .any(|s| s.name == "obs_torn_roundtrip_total" && s.value >= 3.0));
    let json = std::fs::read_to_string(dir.path().join(JSON_FILE)).expect("json file");
    validate_json(&json).expect("valid json");
    assert!(json.contains("obs_torn_roundtrip_total"));
}
