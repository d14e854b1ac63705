//! Integration-test crate for the SARN workspace; see `tests/`. The
//! library holds the helpers more than one suite uses.

use sarn_geo::Point;
use sarn_pipeline::{EditBatch, LiveNetwork, NetworkEdit};
use sarn_roadnet::HighwayClass;

/// Edit batch `k` (1-based) against `live`: two adds hanging off existing
/// geometry, one removal and one reclass — every edit kind, with
/// deterministic anchors. The adds take keys `key_base + 2k` and
/// `key_base + 2k + 1`, so consecutive batches never collide as long as
/// `key_base` lies above every key in use.
pub fn mixed_batch(live: &LiveNetwork, k: u64, key_base: u64) -> EditBatch {
    let n = live.network().num_segments();
    let add = |key: u64, anchor: usize, dlat: f64, dlon: f64| {
        let s = live.network().segment(anchor);
        NetworkEdit::SegmentAdd {
            key,
            class: HighwayClass::Tertiary,
            start: s.end,
            end: Point {
                lat: s.end.lat + dlat,
                lon: s.end.lon + dlon,
            },
            in_neighbors: vec![live.key_of(anchor)],
            out_neighbors: vec![],
        }
    };
    EditBatch::new(vec![
        add(key_base + 2 * k, (7 * k as usize + 3) % n, 4e-4, -2e-4),
        add(
            key_base + 2 * k + 1,
            (11 * k as usize + 19) % n,
            -3e-4,
            3e-4,
        ),
        NetworkEdit::SegmentRemove {
            key: live.key_of((5 * k as usize + 31) % n),
        },
        NetworkEdit::ReclassSegment {
            key: live.key_of((3 * k as usize + 17) % n),
            class: HighwayClass::Primary,
        },
    ])
}
