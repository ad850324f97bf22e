//! Offline analysis of `--trace` JSON-lines files.
//!
//! [`render`] turns a trace produced by `gaplan ... --trace FILE` into a
//! human-readable report: per-span time breakdown, per-phase generation
//! counts, an eval-time histogram, the top-k slowest generations, the
//! state-aware crossover fallback rate, and — when present — the grid
//! task-lifecycle timeline and service reply summaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gaplan_obs::Histogram;
use serde::json::{parse, Value};

fn num_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::Int(i)) => u64::try_from(*i).ok(),
        Some(Value::Float(f)) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn num_f64(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Int(i)) => Some(*i as f64),
        Some(Value::Float(f)) => Some(*f),
        _ => None,
    }
}

fn str_of<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    v.get(key).and_then(Value::as_str)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

/// Everything [`render`] extracts from a trace, exposed for tests and
/// programmatic consumers.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Parsed event lines.
    pub events: usize,
    /// Lines that failed to parse (the report still covers the rest).
    pub unparseable: usize,
    /// Per-span `(count, total wall ns)`, keyed by span name.
    pub spans: BTreeMap<String, (u64, u64)>,
    /// `(phase, generation, eval wall ns, best total fitness)` per `ga.gen`.
    pub generations: Vec<(u64, u64, u64, f64)>,
    /// Crossover outcome totals: children, state-aware fallbacks,
    /// unchanged, rate-skipped.
    pub xover: [u64; 4],
    /// Event counts for `grid.*` timeline events, keyed by event name.
    pub grid_events: BTreeMap<String, u64>,
    /// `(makespan, failed)` from the trailing `grid.done` event.
    pub grid_done: Option<(f64, bool)>,
    /// `svc.reply` counts keyed by response status: one per reply line, so
    /// a coalesced computation counts once per waiter.
    pub replies: BTreeMap<String, u64>,
    /// `svc.conn` counts: opens, closes, total waiters abandoned by
    /// disconnects.
    pub conns: [u64; 3],
    /// `svc.conn` reap events: idle connections cut by the server.
    pub conns_reaped: u64,
    /// `svc.brownout` transitions: engagements, recoveries.
    pub brownout: [u64; 2],
    /// `svc.codel` events: jobs head-dropped by the controlled-delay queue.
    pub codel_drops: u64,
    /// `svc.coalesced` events: jobs that joined an identical in-flight
    /// computation instead of running their own.
    pub coalesced: u64,
    /// `svc.idem` events: idempotent duplicate-id joins, payload conflicts.
    pub idem: [u64; 2],
    /// Successor-cache totals from `ga.cache` events: events, hits, misses,
    /// evictions.
    pub cache: [u64; 4],
    /// Island-migration totals from `ga.migration` events: steps,
    /// individuals moved, total wall ns.
    pub migrations: [u64; 3],
    /// Largest island count reported by a `ga.migration` event (0 when the
    /// run was single-population).
    pub islands: u64,
}

impl TraceSummary {
    /// Parse a JSON-lines trace into a summary.
    pub fn parse(text: &str) -> TraceSummary {
        let mut s = TraceSummary::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(value) = parse(line) else {
                s.unparseable += 1;
                continue;
            };
            let Some(ev) = str_of(&value, "ev") else {
                s.unparseable += 1;
                continue;
            };
            s.events += 1;
            match ev {
                "span_exit" => {
                    if let (Some(name), Some(wall_ns)) = (str_of(&value, "span"), num_u64(&value, "wall_ns")) {
                        let entry = s.spans.entry(name.to_string()).or_insert((0, 0));
                        entry.0 += 1;
                        entry.1 += wall_ns;
                    }
                }
                "ga.gen" => {
                    s.generations.push((
                        num_u64(&value, "phase").unwrap_or(0),
                        num_u64(&value, "gen").unwrap_or(0),
                        num_u64(&value, "eval_wall_ns").unwrap_or(0),
                        num_f64(&value, "best_total").unwrap_or(0.0),
                    ));
                }
                "ga.xover" => {
                    for (slot, key) in s.xover.iter_mut().zip(["children", "fallback", "unchanged", "skipped"]) {
                        *slot += num_u64(&value, key).unwrap_or(0);
                    }
                }
                "ga.migration" => {
                    s.migrations[0] += 1;
                    s.migrations[1] += num_u64(&value, "moved").unwrap_or(0);
                    s.migrations[2] += num_u64(&value, "wall_ns").unwrap_or(0);
                    s.islands = s.islands.max(num_u64(&value, "islands").unwrap_or(0));
                }
                "ga.cache" => {
                    s.cache[0] += 1;
                    for (slot, key) in s.cache[1..].iter_mut().zip(["hits", "misses", "evictions"]) {
                        *slot += num_u64(&value, key).unwrap_or(0);
                    }
                }
                "svc.reply" => {
                    *s.replies.entry(str_of(&value, "status").unwrap_or("?").to_string()).or_insert(0) += 1;
                }
                "svc.conn" => match str_of(&value, "op") {
                    Some("open") => s.conns[0] += 1,
                    Some("close") => {
                        s.conns[1] += 1;
                        s.conns[2] += num_u64(&value, "abandoned").unwrap_or(0);
                    }
                    Some("reap") => s.conns_reaped += 1,
                    _ => {}
                },
                "svc.coalesced" => s.coalesced += 1,
                "svc.idem" => match str_of(&value, "op") {
                    Some("join") => s.idem[0] += 1,
                    Some("conflict") => s.idem[1] += 1,
                    _ => {}
                },
                "svc.brownout" => {
                    if matches!(value.get("on"), Some(Value::Bool(true))) {
                        s.brownout[0] += 1;
                    } else {
                        s.brownout[1] += 1;
                    }
                }
                "svc.codel" => s.codel_drops += 1,
                name if name.starts_with("grid.") => {
                    *s.grid_events.entry(name.to_string()).or_insert(0) += 1;
                    if name == "grid.done" {
                        s.grid_done = Some((
                            num_f64(&value, "makespan").unwrap_or(0.0),
                            matches!(value.get("failed"), Some(Value::Bool(true))),
                        ));
                    }
                }
                _ => {}
            }
        }
        s
    }

    /// `fallback / attempted` crossover rate in `[0, 1]`, where attempted
    /// counts every pairing the operator was asked to cross (children +
    /// fallbacks + unchanged). `None` before any crossover ran.
    pub fn fallback_rate(&self) -> Option<f64> {
        let attempted = self.xover[0] + self.xover[1] + self.xover[2];
        (attempted > 0).then(|| self.xover[1] as f64 / attempted as f64)
    }

    /// Successor-cache `hits / (hits + misses)` in `[0, 1]`; `None` when
    /// the trace has no cache activity (cache off, or no `ga.cache` lines).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let probes = self.cache[1] + self.cache[2];
        (probes > 0).then(|| self.cache[1] as f64 / probes as f64)
    }
}

/// Render the report for a raw trace: parse, then format every section for
/// which the trace has data.
pub fn render(text: &str, top_k: usize) -> String {
    let s = TraceSummary::parse(text);
    let mut out = String::new();
    let _ = writeln!(out, "trace report: {} events ({} unparseable lines)", s.events, s.unparseable);

    if !s.spans.is_empty() {
        let _ = writeln!(out, "\nspans:");
        let _ = writeln!(out, "  {:<24} {:>7} {:>12} {:>12}", "name", "count", "total ms", "mean ms");
        for (name, (count, total_ns)) in &s.spans {
            let mean = ms(*total_ns) / (*count).max(1) as f64;
            let _ = writeln!(out, "  {:<24} {:>7} {:>12.3} {:>12.3}", name, count, ms(*total_ns), mean);
        }
    }

    if !s.generations.is_empty() {
        let mut per_phase: BTreeMap<u64, u64> = BTreeMap::new();
        for (phase, ..) in &s.generations {
            *per_phase.entry(*phase).or_insert(0) += 1;
        }
        let _ = writeln!(out, "\nga generations:");
        for (phase, count) in &per_phase {
            let best = s.generations.iter().filter(|g| g.0 == *phase).map(|g| g.3).fold(f64::NEG_INFINITY, f64::max);
            let _ = writeln!(out, "  phase {phase}: {count} generations, best total fitness {best:.3}");
        }
        let _ = writeln!(out, "  total: {} generations across {} phases", s.generations.len(), per_phase.len());

        let mut hist = Histogram::new();
        for (_, _, eval_ns, _) in &s.generations {
            hist.record(*eval_ns);
        }
        let _ = writeln!(out, "\neval time per generation:");
        for (upper_ns, count) in hist.nonzero_buckets() {
            let _ = writeln!(out, "  <= {:>10.3} ms: {count}", ms(upper_ns));
        }
        let _ = writeln!(
            out,
            "  mean {:.3} ms, p50 <= {:.3} ms, p99 <= {:.3} ms",
            hist.mean() / 1.0e6,
            ms(hist.quantile_upper(0.5)),
            ms(hist.quantile_upper(0.99))
        );

        let mut slowest = s.generations.clone();
        slowest.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        let _ = writeln!(out, "\nslowest generations:");
        for (phase, generation, eval_ns, best) in slowest.iter().take(top_k.max(1)) {
            let _ = writeln!(
                out,
                "  phase {phase} gen {generation}: {:.3} ms eval, best total fitness {best:.3}",
                ms(*eval_ns)
            );
        }
    }

    let attempted = s.xover[0] + s.xover[1] + s.xover[2];
    if attempted > 0 || s.xover[3] > 0 {
        let _ = writeln!(out, "\ncrossover outcomes:");
        let _ = writeln!(
            out,
            "  children {}, state-aware fallbacks {}, unchanged {}, rate-skipped {}",
            s.xover[0], s.xover[1], s.xover[2], s.xover[3]
        );
        if let Some(rate) = s.fallback_rate() {
            let _ = writeln!(out, "  state-aware fallback rate: {:.1}% of {attempted} attempted", rate * 100.0);
        }
    }

    if s.cache[0] > 0 {
        let _ = writeln!(out, "\nsuccessor cache:");
        let _ = writeln!(
            out,
            "  hits {}, misses {}, evictions {} across {} phases",
            s.cache[1], s.cache[2], s.cache[3], s.cache[0]
        );
        match s.cache_hit_rate() {
            Some(rate) => {
                let _ = writeln!(out, "  hit rate: {:.1}%", rate * 100.0);
            }
            None => {
                let _ = writeln!(out, "  cache disabled (no probes recorded)");
            }
        }
    }

    if s.migrations[0] > 0 {
        let _ = writeln!(out, "\nisland migrations:");
        let _ = writeln!(
            out,
            "  {} migration steps across {} islands, {} individuals moved, {:.3} ms total",
            s.migrations[0],
            s.islands,
            s.migrations[1],
            ms(s.migrations[2])
        );
    }

    if !s.grid_events.is_empty() {
        let _ = writeln!(out, "\ngrid timeline:");
        for (name, count) in &s.grid_events {
            let _ = writeln!(out, "  {:<20} {count}", name.strip_prefix("grid.").unwrap_or(name));
        }
        if let Some((makespan, failed)) = s.grid_done {
            let _ = writeln!(out, "  makespan {makespan:.1}, degraded: {failed}");
        }
    }

    if !s.replies.is_empty() {
        let _ = writeln!(out, "\nservice replies:");
        for (status, count) in &s.replies {
            let _ = writeln!(out, "  {status:<10} {count}");
        }
        if s.coalesced > 0 {
            let _ = writeln!(out, "  coalesced  {} (joined an identical in-flight job)", s.coalesced);
        }
        if s.idem[0] > 0 || s.idem[1] > 0 {
            let _ = writeln!(
                out,
                "  idempotent retries: {} joined the in-flight id, {} rejected (payload differs)",
                s.idem[0], s.idem[1]
            );
        }
    }

    if s.codel_drops > 0 || s.brownout[0] > 0 || s.brownout[1] > 0 {
        let _ = writeln!(out, "\noverload control:");
        let _ = writeln!(out, "  codel head drops {}", s.codel_drops);
        let _ = writeln!(out, "  brownout engaged {}x, recovered {}x", s.brownout[0], s.brownout[1]);
    }

    if s.conns[0] > 0 || s.conns[1] > 0 {
        let _ = writeln!(out, "\nconnections:");
        let _ = writeln!(
            out,
            "  opened {}, closed {}, reaped idle {}, waiters abandoned by disconnects {}",
            s.conns[0], s.conns[1], s.conns_reaped, s.conns[2]
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        r#"{"ev":"span_enter","span":"ga.run"}"#,
        "\n",
        r#"{"ev":"ga.gen","phase":1,"gen":0,"best_total":0.50,"eval_wall_ns":2000000}"#,
        "\n",
        r#"{"ev":"ga.gen","phase":1,"gen":1,"best_total":0.75,"eval_wall_ns":9000000}"#,
        "\n",
        r#"{"ev":"ga.xover","phase":1,"gen":0,"children":60,"fallback":30,"unchanged":10,"skipped":5}"#,
        "\n",
        r#"{"ev":"ga.gen","phase":2,"gen":0,"best_total":1.00,"eval_wall_ns":1000000}"#,
        "\n",
        r#"{"ev":"ga.cache","phase":1,"hits":90,"misses":10,"evictions":2,"capacity":65536}"#,
        "\n",
        r#"{"ev":"ga.cache","phase":2,"hits":60,"misses":40,"evictions":0,"capacity":65536}"#,
        "\n",
        r#"{"ev":"ga.migration","phase":1,"gen":5,"islands":4,"emigrants":2,"moved":8,"wall_ns":500000}"#,
        "\n",
        r#"{"ev":"ga.migration","phase":1,"gen":10,"islands":4,"emigrants":2,"moved":8,"wall_ns":300000}"#,
        "\n",
        r#"{"ev":"span_exit","span":"ga.run","wall_ns":12000000}"#,
        "\n",
        r#"{"ev":"grid.dispatch","t":0.0,"task":"a","site":"s","eta":1.5}"#,
        "\n",
        r#"{"ev":"grid.done","makespan":42.5,"busy_time":40.0,"tasks":1,"replans":0,"faults":0,"retried":0,"rerouted":0,"failed":false,"goal_fitness":1.0}"#,
        "\n",
        r#"{"ev":"svc.reply","id":1,"status":"Done","cache_hit":false,"wall_ms":3}"#,
        "\n",
        r#"{"ev":"svc.conn","op":"open","peer":"127.0.0.1:9999"}"#,
        "\n",
        r#"{"ev":"svc.coalesced","id":7,"leader":3,"key":123}"#,
        "\n",
        r#"{"ev":"svc.idem","op":"join","id":5,"leader":3,"key":123}"#,
        "\n",
        r#"{"ev":"svc.idem","op":"conflict","id":5}"#,
        "\n",
        r#"{"ev":"svc.conn","op":"close","peer":"127.0.0.1:9999","abandoned":2}"#,
        "\n",
        r#"{"ev":"svc.conn","op":"reap","peer":"127.0.0.1:8888","idle_ms":4000}"#,
        "\n",
        r#"{"ev":"svc.brownout","on":true,"queue_wait_ewma_ms":80}"#,
        "\n",
        r#"{"ev":"svc.brownout","on":false,"queue_wait_ewma_ms":4}"#,
        "\n",
        r#"{"ev":"svc.codel","id":9,"sojourn_ms":150}"#,
        "\n",
        "not json at all\n",
    );

    #[test]
    fn summary_extracts_every_section() {
        let s = TraceSummary::parse(SAMPLE);
        assert_eq!(s.events, 22);
        assert_eq!(s.unparseable, 1);
        assert_eq!(s.cache, [2, 150, 50, 2]);
        assert_eq!(s.migrations, [2, 16, 800_000]);
        assert_eq!(s.islands, 4);
        assert!((s.cache_hit_rate().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(s.spans["ga.run"], (1, 12_000_000));
        assert_eq!(s.generations.len(), 3);
        assert_eq!(s.xover, [60, 30, 10, 5]);
        assert!((s.fallback_rate().unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(s.grid_events["grid.dispatch"], 1);
        assert_eq!(s.grid_done, Some((42.5, false)));
        assert_eq!(s.replies["Done"], 1);
        assert_eq!(s.conns, [1, 1, 2]);
        assert_eq!(s.conns_reaped, 1);
        assert_eq!(s.brownout, [1, 1]);
        assert_eq!(s.codel_drops, 1);
        assert_eq!(s.coalesced, 1);
        assert_eq!(s.idem, [1, 1]);
    }

    #[test]
    fn render_prints_per_phase_counts_histogram_and_fallback_rate() {
        let report = render(SAMPLE, 2);
        assert!(report.contains("phase 1: 2 generations"), "{report}");
        assert!(report.contains("phase 2: 1 generations"), "{report}");
        assert!(report.contains("total: 3 generations across 2 phases"), "{report}");
        assert!(report.contains("eval time per generation"), "{report}");
        assert!(report.contains("state-aware fallback rate: 30.0% of 100 attempted"), "{report}");
        // top-2 slowest come out in eval-time order
        let slow = report.find("phase 1 gen 1: 9.000 ms").expect("slowest listed");
        let next = report.find("phase 1 gen 0: 2.000 ms").expect("second slowest listed");
        assert!(slow < next, "{report}");
        assert!(!report.contains("gen 0: 1.000 ms"), "top_k=2 must cut the list: {report}");
        assert!(report.contains("makespan 42.5"), "{report}");
        assert!(report.contains("Done"), "{report}");
        assert!(report.contains("hits 150, misses 50, evictions 2 across 2 phases"), "{report}");
        assert!(report.contains("hit rate: 75.0%"), "{report}");
        assert!(
            report.contains("2 migration steps across 4 islands, 16 individuals moved, 0.800 ms total"),
            "{report}"
        );
        assert!(report.contains("coalesced  1"), "{report}");
        assert!(
            report.contains("idempotent retries: 1 joined the in-flight id, 1 rejected (payload differs)"),
            "{report}"
        );
        assert!(report.contains("codel head drops 1"), "{report}");
        assert!(report.contains("brownout engaged 1x, recovered 1x"), "{report}");
        assert!(report.contains("opened 1, closed 1, reaped idle 1, waiters abandoned by disconnects 2"), "{report}");
    }

    #[test]
    fn empty_trace_renders_a_header_only() {
        let report = render("", 5);
        assert!(report.starts_with("trace report: 0 events"));
        assert!(!report.contains("spans:"));
    }
}
