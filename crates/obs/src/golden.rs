//! Golden-trace masking.
//!
//! The determinism contract (see crate docs) confines wall-clock readings
//! to fields whose name contains `wall`. These helpers blank exactly those
//! values so two runs of the same seeded command can be compared
//! byte-for-byte. Masking is a small scanner over the JSON line rather
//! than a parse/re-serialize round trip, so everything *outside* the
//! masked values — field order, float formatting, whitespace — stays
//! untouched and still participates in the comparison.

/// True if a field with this key is allowed to carry wall-clock data and
/// must therefore be masked before golden comparison.
pub fn is_wall_field(key: &str) -> bool {
    key.contains("wall")
}

/// True if this key on a `ga.cache` line carries successor-cache telemetry.
/// The cache never changes decode *results*, but its hit/miss/eviction
/// tallies depend on whether it is on and, for a table shared across
/// service workers, on which worker reaches a state first, so the counters
/// are masked like wall-clock data.
/// `capacity` is masked too: it is a tuning knob, and masking it keeps
/// cache-on and cache-off traces byte-identical. `phase` stays.
pub fn is_cache_counter_field(key: &str) -> bool {
    matches!(key, "hits" | "misses" | "evictions" | "capacity")
}

/// Mask one JSON line: every numeric value whose key contains `wall` — plus,
/// on `ga.cache` event lines, the cache counters — is replaced by `0`.
/// Non-JSON lines pass through unchanged.
pub fn mask_line(line: &str) -> String {
    let cache_line = line.contains(r#""ev":"ga.cache""#);
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            // Scan a string token, honoring escapes.
            let start = i;
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            let token = &line[start..i.min(bytes.len())];
            out.push_str(token);
            // A string followed by ':' is a key; mask its numeric value
            // when the key names a wall-clock field.
            let key = token.trim_matches('"');
            if is_wall_field(key) || (cache_line && is_cache_counter_field(key)) {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if j < bytes.len() && bytes[j] == b':' {
                    out.push_str(&line[i..=j]);
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                        out.push(bytes[j] as char);
                        j += 1;
                    }
                    let num_start = j;
                    while j < bytes.len() && matches!(bytes[j], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                        j += 1;
                    }
                    if j > num_start {
                        out.push('0');
                        i = j;
                    } else {
                        i = num_start;
                    }
                }
            }
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

/// Mask a whole JSON-lines trace, preserving line structure.
pub fn mask_trace(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        out.push_str(&mask_line(line));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_only_wall_fields() {
        let line = r#"{"ev":"ga.gen","gen":3,"eval_wall_ns":123456,"best":0.5}"#;
        assert_eq!(mask_line(line), r#"{"ev":"ga.gen","gen":3,"eval_wall_ns":0,"best":0.5}"#);
    }

    #[test]
    fn masks_every_wall_field_on_the_line() {
        let line = r#"{"ev":"svc.reply","wall_ms":88,"queue_wait_wall_ms":12,"id":4}"#;
        assert_eq!(mask_line(line), r#"{"ev":"svc.reply","wall_ms":0,"queue_wait_wall_ms":0,"id":4}"#);
    }

    #[test]
    fn string_values_containing_wall_are_not_touched() {
        let line = r#"{"ev":"x","msg":"wall_ns is a field","n":7}"#;
        assert_eq!(mask_line(line), line);
    }

    #[test]
    fn masks_scientific_and_negative_numbers() {
        let line = r#"{"span_wall_s":1.5e-3,"other":2}"#;
        assert_eq!(mask_line(line), r#"{"span_wall_s":0,"other":2}"#);
    }

    #[test]
    fn migration_wall_ns_is_masked_but_tallies_survive() {
        let line = r#"{"ev":"ga.migration","phase":0,"gen":5,"islands":4,"emigrants":2,"moved":8,"wall_ns":123456}"#;
        assert_eq!(
            mask_line(line),
            r#"{"ev":"ga.migration","phase":0,"gen":5,"islands":4,"emigrants":2,"moved":8,"wall_ns":0}"#
        );
    }

    #[test]
    fn cache_counters_masked_only_on_cache_lines() {
        let line = r#"{"ev":"ga.cache","phase":1,"hits":901,"misses":14,"evictions":2,"capacity":65536}"#;
        assert_eq!(mask_line(line), r#"{"ev":"ga.cache","phase":1,"hits":0,"misses":0,"evictions":0,"capacity":0}"#);
        // The same keys on any other event keep their values.
        let other = r#"{"ev":"svc.stats","hits":3,"misses":1}"#;
        assert_eq!(mask_line(other), other);
    }

    #[test]
    fn mask_trace_is_line_preserving_and_idempotent() {
        let text = "{\"a_wall_ns\":9}\n{\"b\":1}\n";
        let masked = mask_trace(text);
        assert_eq!(masked, "{\"a_wall_ns\":0}\n{\"b\":1}\n");
        assert_eq!(mask_trace(&masked), masked);
    }
}
