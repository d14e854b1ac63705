//! Exporters: Prometheus text exposition and a JSON snapshot, plus the
//! JSONL event journal, all written with [`sarn_durable::atomic_write`]
//! (DESIGN.md §8, "Durable writes") so a concurrent scraper never reads a
//! torn file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use sarn_durable::atomic_write;

use crate::journal::{json_f64, json_string, EventJournal};
use crate::registry::{Registry, Snapshot};

/// File name of the Prometheus exposition export inside an export dir.
pub const PROMETHEUS_FILE: &str = "metrics.prom";
/// File name of the JSON snapshot export inside an export dir.
pub const JSON_FILE: &str = "metrics.json";
/// File name of the event-journal JSONL export inside an export dir.
pub const EVENTS_FILE: &str = "events.jsonl";

/// Formats an `f64` for Prometheus exposition (`+Inf`/`-Inf`/`NaN`
/// spellings per the text format).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// Renders a snapshot in the Prometheus text exposition format:
/// counters and gauges as single samples, histograms as cumulative
/// `_bucket{le=...}` series plus `_sum` and `_count`.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", prom_f64(*v)));
    }
    for h in &snap.histograms {
        let name = &h.name;
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, c) in h.counts.iter().enumerate() {
            cumulative += c;
            let le = h
                .boundaries
                .get(i)
                .map_or_else(|| "+Inf".to_string(), |b| prom_f64(*b));
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_sum {}\n", prom_f64(h.sum)));
        out.push_str(&format!("{name}_count {}\n", h.count));
    }
    out
}

/// Renders a snapshot as one JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{name:{...}}}`.
pub fn json_text(snap: &Snapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{v}", json_string(name)));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_string(name), json_f64(*v)));
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{{\"boundaries\":[", json_string(&h.name)));
        for (j, b) in h.boundaries.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_f64(*b));
        }
        out.push_str("],\"counts\":[");
        for (j, c) in h.counts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push_str(&format!(
            "],\"sum\":{},\"count\":{}}}",
            json_f64(h.sum),
            h.count
        ));
    }
    out.push_str("}}");
    out
}

/// Exports the global registry and journal into `dir` (created if
/// missing): `metrics.prom`, `metrics.json`, and `events.jsonl`, each
/// written atomically. Returns the three paths.
pub fn export_all(dir: &Path) -> io::Result<[PathBuf; 3]> {
    fs::create_dir_all(dir)?;
    let snap = Registry::global().snapshot();
    let prom = dir.join(PROMETHEUS_FILE);
    let json = dir.join(JSON_FILE);
    let events = dir.join(EVENTS_FILE);
    atomic_write(&prom, prometheus_text(&snap).as_bytes())?;
    atomic_write(&json, json_text(&snap).as_bytes())?;
    atomic_write(&events, EventJournal::global().to_jsonl().as_bytes())?;
    Ok([prom, json, events])
}

/// Validates that `s` is one complete JSON value (minimal recursive-
/// descent syntax check; no DOM is built). Used by the torn-export tests
/// and the `obs_equivalence` system test — the exporters must only ever
/// produce parseable files.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                skip_ws(b, pos);
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos),
        Some(b't') => expect_word(b, pos, "true"),
        Some(b'f') => expect_word(b, pos, "false"),
        Some(b'n') => expect_word(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at offset {pos}")),
    }
}

fn expect(b: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {pos}", want as char))
    }
}

fn expect_word(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("expected `{word}` at offset {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'"')?;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at offset {pos}"));
                        }
                        *pos += 5;
                    }
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at offset {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_from = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == digits_from {
        return Err(format!("number without digits at offset {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_from {
            return Err(format!("fraction without digits at offset {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_from {
            return Err(format!("exponent without digits at offset {start}"));
        }
    }
    Ok(())
}

/// One sample parsed from a Prometheus exposition file.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric name including any `_bucket`/`_sum`/`_count` suffix.
    pub name: String,
    /// Raw label block (without braces), empty when unlabelled.
    pub labels: String,
    /// The sample value.
    pub value: f64,
}

/// Parses Prometheus text exposition into samples, validating the line
/// grammar (comments pass through, every sample line must be
/// `name[{labels}] value`). The `obs_equivalence` system test drives this
/// over the real export to prove a scraper could.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator", lineno + 1))?;
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .map_err(|e| format!("line {}: bad value `{v}`: {e}", lineno + 1))?,
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated label block", lineno + 1))?;
                (name, labels)
            }
            None => (series, ""),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name `{name}`", lineno + 1));
        }
        samples.push(PromSample {
            name: name.to_string(),
            labels: labels.to_string(),
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::HistogramSnapshot;

    fn demo_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![("demo_total".into(), 3)],
            gauges: vec![("demo_gauge".into(), 1.5)],
            histograms: vec![HistogramSnapshot {
                name: "demo_seconds".into(),
                boundaries: vec![0.1, 1.0],
                counts: vec![2, 1, 1],
                sum: 3.25,
                count: 4,
            }],
        }
    }

    #[test]
    fn prometheus_text_is_parseable_and_cumulative() {
        let text = prometheus_text(&demo_snapshot());
        let samples = parse_prometheus(&text).expect("export must parse");
        let get = |name: &str, labels: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.labels == labels)
                .map(|s| s.value)
        };
        assert_eq!(get("demo_total", ""), Some(3.0));
        assert_eq!(get("demo_gauge", ""), Some(1.5));
        // Buckets are cumulative and end at +Inf == _count.
        assert_eq!(get("demo_seconds_bucket", "le=\"0.1\""), Some(2.0));
        assert_eq!(get("demo_seconds_bucket", "le=\"1.0\""), Some(3.0));
        assert_eq!(get("demo_seconds_bucket", "le=\"+Inf\""), Some(4.0));
        assert_eq!(get("demo_seconds_count", ""), Some(4.0));
        assert_eq!(get("demo_seconds_sum", ""), Some(3.25));
    }

    #[test]
    fn json_text_is_valid_json() {
        let text = json_text(&demo_snapshot());
        validate_json(&text).expect("snapshot JSON must parse");
        assert!(text.contains("\"demo_total\":3"));
        assert!(text.contains("\"sum\":3.25"));
        // Empty snapshot is still valid.
        validate_json(&json_text(&Snapshot::default())).expect("empty snapshot");
    }

    #[test]
    fn validate_json_rejects_torn_prefixes() {
        let full = json_text(&demo_snapshot());
        for cut in [1, full.len() / 3, full.len() / 2, full.len() - 1] {
            assert!(
                validate_json(&full[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly parsed"
            );
        }
        assert!(validate_json("{\"a\":1} trailing").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,2,]").is_err());
        validate_json(" {\"a\": [1, -2.5e3, true, null, \"x\\n\"]} ").expect("valid doc");
    }
}
