//! The committed perf artifacts and the guard that checks fresh runs
//! against them.
//!
//! Two artifacts sit in the repository root:
//!
//! * `BENCH_wallclock.json`, written by `wallclock`: the event queue's
//!   schedule+step ns/op at 100k pending and the instrumented/plain
//!   wall-time ratio of a closed loop.
//! * `BENCH_scale.json`, written by `scale` through [`scale_json`]: one
//!   object per tenant tier of the flow-level fleet, with both engines'
//!   simulated results and wall-clock throughput.
//!
//! This module owns their format. [`scale_json`] is the one scale-tier
//! emitter: `scale` writes the timed artifact with it and `policies
//! --default-guard` the untimed golden `tests/golden/scale_quick_default.json`.
//! [`read`] is the one reader, and [`CLAUSES`] the one clause table;
//! `wallclock --guard` and `scale --guard` evaluate it through
//! [`enforce`].
//!
//! Only host speed is timed here. Properties that an exact count can
//! decide are ordinary tests instead: the event queue's flatness in
//! queue depth (`specfaas_sim::event`, on `Simulator::work`), the
//! executor's concurrency (`executor`), and the scale tiers' memory
//! growth and speculation win, which hold on the committed artifact (a
//! test below) and carry over to every fresh run because the `Same`
//! clauses make each simulated field equal to it.

use std::collections::BTreeMap;

use specfaas_platform::fleet::ScaleStats;

/// A committed artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// `BENCH_wallclock.json`, written by `wallclock`.
    Wallclock,
    /// `BENCH_scale.json`, written by `scale`.
    Scale,
}

/// How a clause compares a fresh run's field with the committed one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// At most the committed value times this factor.
    AtMostCommitted(f64),
    /// At least the committed value times this factor.
    AtLeastCommitted(f64),
    /// At most this limit, whatever the committed value.
    AtMost(f64),
    /// At least this limit, whatever the committed value.
    AtLeast(f64),
    /// Byte-identical to the committed value, except for keys ending in
    /// one of these suffixes (fields that host timing decides).
    Same {
        /// Key suffixes the clause skips.
        except: &'static [&'static str],
    },
}

/// One guard clause: a rule applied to the fields a key pattern selects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clause {
    /// The artifact the clause reads.
    pub artifact: Artifact,
    /// Field path as [`read`] names it; `*` matches any one segment. The
    /// rule applies to every field of the fresh run the pattern matches,
    /// and matching none is a violation.
    pub key: &'static str,
    /// The comparison.
    pub rule: Rule,
}

/// Wall-clock fields of a scale tier: the only ones a re-run may change.
const TIMED: &[&str] = &["_req_per_sec", "_wall_secs"];

/// Every guard clause.
///
/// * `schedule_step` at 100k pending may cost at most 1.25× the
///   committed ns/op.
/// * Arming the streaming instruments (recording registry + windowed
///   snapshots) may slow the same closed loop at most 1.5×. The armed
///   per-event cost is a dozen O(1) interned gauge samples and a few
///   histogram and Space-Saving updates per request (measured
///   ~1.15–1.4×); the name-keyed map walk it replaced measured ~2.4×.
/// * At 1000 tenants each engine keeps at least 0.35× its committed
///   throughput (CI hosts are noisy) and never drops below 30k
///   sim-requests/s, so a 10⁶-request tier finishes well inside a
///   minute even against a stale blessing.
/// * The trace seed and every simulated field of each tier equal the
///   committed artifact.
pub const CLAUSES: &[Clause] = &[
    Clause {
        artifact: Artifact::Wallclock,
        key: "event_queue.schedule_step.median_ns_per_op",
        rule: Rule::AtMostCommitted(1.25),
    },
    Clause {
        artifact: Artifact::Wallclock,
        key: "instrumented_overhead.overhead_ratio",
        rule: Rule::AtMost(1.5),
    },
    Clause {
        artifact: Artifact::Scale,
        key: "tiers.1000.baseline_req_per_sec",
        rule: Rule::AtLeastCommitted(0.35),
    },
    Clause {
        artifact: Artifact::Scale,
        key: "tiers.1000.spec_req_per_sec",
        rule: Rule::AtLeastCommitted(0.35),
    },
    Clause {
        artifact: Artifact::Scale,
        key: "tiers.1000.baseline_req_per_sec",
        rule: Rule::AtLeast(30_000.0),
    },
    Clause {
        artifact: Artifact::Scale,
        key: "tiers.1000.spec_req_per_sec",
        rule: Rule::AtLeast(30_000.0),
    },
    Clause {
        artifact: Artifact::Scale,
        key: "seed",
        rule: Rule::Same { except: &[] },
    },
    Clause {
        artifact: Artifact::Scale,
        key: "tiers.*.*",
        rule: Rule::Same { except: TIMED },
    },
];

// ---------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------

/// One tenant tier of a scale run.
pub struct TierRun<'a> {
    /// Tenant count.
    pub tenants: u32,
    /// Requests driven through each engine.
    pub requests: u64,
    /// The baseline engine's results.
    pub baseline: &'a ScaleStats,
    /// The speculative engine's results.
    pub spec: &'a ScaleStats,
    /// Baseline and speculative wall seconds; `None` leaves out the
    /// timed fields.
    pub wall_secs: Option<[f64; 2]>,
}

/// One engine's fields of a tier object.
fn engine_fields(prefix: &str, s: &ScaleStats, wall_secs: Option<f64>) -> String {
    let timed = wall_secs.map_or(String::new(), |w| {
        format!(
            "\"{prefix}_req_per_sec\": {:.1}, \"{prefix}_wall_secs\": {w:.3}, ",
            s.completed as f64 / w.max(1e-9)
        )
    });
    format!(
        "{timed}\"{prefix}_sim_secs\": {:.3}, \"{prefix}_mean_ms\": {:.3}, \
         \"{prefix}_p50_ms\": {:.3}, \"{prefix}_p99_ms\": {:.3}, \
         \"{prefix}_cold_rate\": {:.6}, \"{prefix}_wasted_frac\": {:.6}, \
         \"{prefix}_peak_live\": {}, \"{prefix}_peak_mem_bytes\": {}, \
         \"{prefix}_cores\": {}, \"{prefix}_warm_capacity\": {}",
        s.sim_span.as_secs_f64(),
        s.mean_ms(),
        s.latency.quantile_ms(0.50),
        s.latency.quantile_ms(0.99),
        s.cold_rate(),
        s.wasted_frac(),
        s.peak_live,
        s.peak_mem_bytes,
        s.cores,
        s.warm_capacity,
    )
}

/// Writes a scale artifact: a header with the trace `seed` and requests
/// per tier, then one object per tier. `jobs` is `Some` for a timed run,
/// whose header also records the host's parallelism and the job count;
/// `None` (with untimed tiers) gives the deterministic layout of the
/// golden.
pub fn scale_json(seed: u64, requests: u64, jobs: Option<usize>, tiers: &[TierRun]) -> String {
    let host = jobs.map_or(String::new(), |jobs| {
        format!(
            "  \"host_parallelism\": {},\n  \"jobs\": {jobs},\n",
            crate::executor::host_parallelism()
        )
    });
    let tiers: Vec<String> = tiers
        .iter()
        .map(|t| {
            let wall = |i: usize| t.wall_secs.map(|w| w[i]);
            format!(
                "    {{ \"tenants\": {}, \"requests\": {},\n      {},\n      {},\n      \
                 \"speculation_win\": {:.4} }}",
                t.tenants,
                t.requests,
                engine_fields("baseline", t.baseline, wall(0)),
                engine_fields("spec", t.spec, wall(1)),
                t.baseline.mean_ms() / t.spec.mean_ms(),
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"specfaas-scale-v1\",\n  \"seed\": {seed},\n  \
         \"requests_per_tier\": {requests},\n{host}  \"tiers\": [\n{}\n  ]\n}}\n",
        tiers.join(",\n"),
    )
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Reads an artifact into its scalar fields, keyed by path.
///
/// A field of a nested object is named `outer.inner`; an array element
/// (always an object) is named by the value of its first field, so the
/// 1000-tenant tier's baseline throughput is
/// `tiers.1000.baseline_req_per_sec`. Values keep their text, strings
/// without quotes. This covers what the emitters write and nothing more:
/// empty objects or arrays, scalar arrays, escapes and duplicate paths
/// are errors.
pub fn read(json: &str) -> Result<BTreeMap<String, String>, String> {
    let mut r = Reader {
        s: json.as_bytes(),
        i: 0,
    };
    let mut fields = Vec::new();
    r.object("", &mut fields)?;
    r.ws();
    if r.i != r.s.len() {
        return Err(format!("trailing input at byte {}", r.i));
    }
    let mut out = BTreeMap::new();
    for (key, value) in fields {
        if out.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate field `{key}`"));
        }
    }
    Ok(out)
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        loop {
            match self.s.get(self.i) {
                Some(b'"') => break,
                Some(b'\\') => return Err(format!("escape at byte {}", self.i)),
                Some(_) => self.i += 1,
                None => return Err("unterminated string".to_string()),
            }
        }
        self.i += 1;
        Ok(String::from_utf8_lossy(&self.s[start..self.i - 1]).into_owned())
    }

    /// Reads a number, `true`, `false` or `null` as text.
    fn scalar(&mut self) -> Result<String, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_alphanumeric() || matches!(c, b'.' | b'-' | b'+'))
        {
            self.i += 1;
        }
        if start == self.i {
            return Err(format!("expected a value at byte {start}"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.i]).into_owned())
    }

    /// After an item, consumes `,` (another item follows: `true`) or
    /// `close` (`false`).
    fn more(&mut self, close: u8) -> Result<bool, String> {
        let next = self.peek();
        self.i += 1;
        match next {
            Some(b',') => Ok(true),
            Some(c) if c == close => Ok(false),
            _ => Err(format!(
                "expected `,` or `{}` at byte {}",
                close as char,
                self.i - 1
            )),
        }
    }

    /// Reads a non-empty object, appending its fields under `prefix`.
    fn object(&mut self, prefix: &str, out: &mut Vec<(String, String)>) -> Result<(), String> {
        self.eat(b'{')?;
        loop {
            let key = format!("{prefix}{}", self.string()?);
            self.eat(b':')?;
            match self.peek() {
                Some(b'{') => self.object(&format!("{key}."), out)?,
                Some(b'[') => self.array(&key, out)?,
                Some(b'"') => out.push((key, self.string()?)),
                _ => out.push((key, self.scalar()?)),
            }
            if !self.more(b'}')? {
                return Ok(());
            }
        }
    }

    /// Reads a non-empty array of objects, naming each by its first
    /// field's value.
    fn array(&mut self, key: &str, out: &mut Vec<(String, String)>) -> Result<(), String> {
        self.eat(b'[')?;
        loop {
            let mut element = Vec::new();
            self.object("", &mut element)?;
            let name = element[0].1.clone();
            out.extend(
                element
                    .into_iter()
                    .map(|(field, value)| (format!("{key}.{name}.{field}"), value)),
            );
            if !self.more(b']')? {
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------

/// Whether `key` matches `pattern` segment by segment (`*` = any one).
fn matches(pattern: &str, key: &str) -> bool {
    let (mut p, mut k) = (pattern.split('.'), key.split('.'));
    loop {
        match (p.next(), k.next()) {
            (None, None) => return true,
            (Some(ps), Some(ks)) if ps == "*" || ps == ks => {}
            _ => return false,
        }
    }
}

/// Applies one clause's rule to one field; returns the violation, if any.
fn judge(rule: Rule, key: &str, current: &str, committed: Option<&str>) -> Option<String> {
    let num = |text: &str| text.parse::<f64>().ok();
    let (bound, ceiling) = match rule {
        Rule::Same { except } => {
            if except.iter().any(|s| key.ends_with(s)) || committed == Some(current) {
                return None;
            }
            return Some(match committed {
                Some(want) => format!("{key} = {current}, committed {want}"),
                None => format!("{key} = {current}, absent from the committed artifact"),
            });
        }
        Rule::AtMost(limit) => (Some(limit), true),
        Rule::AtLeast(limit) => (Some(limit), false),
        Rule::AtMostCommitted(f) => (committed.and_then(num).map(|c| c * f), true),
        Rule::AtLeastCommitted(f) => (committed.and_then(num).map(|c| c * f), false),
    };
    let (Some(value), Some(bound)) = (num(current), bound) else {
        return Some(format!(
            "{key}: cannot compare {current} with committed {committed:?}"
        ));
    };
    let ok = if ceiling {
        value <= bound
    } else {
        value >= bound
    };
    (!ok).then(|| {
        format!(
            "{key} = {value} is {} the bound {bound:.2} ({rule:?})",
            if ceiling { "above" } else { "below" }
        )
    })
}

/// Evaluates every clause of `artifact` on a fresh run's text against
/// the committed text. Returns the violations (empty = pass), or an
/// error if either text cannot be read.
pub fn check(artifact: Artifact, current: &str, committed: &str) -> Result<Vec<String>, String> {
    let cur = read(current).map_err(|e| format!("this run's artifact: {e}"))?;
    let old = read(committed).map_err(|e| format!("committed artifact: {e}"))?;
    let mut violations = Vec::new();
    for clause in CLAUSES.iter().filter(|c| c.artifact == artifact) {
        let hits: Vec<(&String, &String)> =
            cur.iter().filter(|(k, _)| matches(clause.key, k)).collect();
        if hits.is_empty() {
            violations.push(format!("{}: no such field in this run", clause.key));
        }
        for (key, value) in hits {
            let committed = old.get(key).map(String::as_str);
            violations.extend(judge(clause.rule, key, value, committed));
        }
    }
    Ok(violations)
}

/// Checks a fresh run's artifact text against the committed file at
/// `path`, prints the verdict, and exits with status 1 on any violation.
///
/// # Panics
/// Panics if either artifact cannot be read.
pub fn enforce(artifact: Artifact, current: &str, path: &str) {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read committed artifact {path}: {e}"));
    let violations =
        check(artifact, current, &committed).unwrap_or_else(|e| panic!("guard vs {path}: {e}"));
    if violations.is_empty() {
        println!("\nguard vs {path}: PASS");
        return;
    }
    eprintln!("\nguard vs {path}: FAIL");
    for v in &violations {
        eprintln!("  - {v}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name} is committed: {e}"))
    }

    fn num(fields: &BTreeMap<String, String>, key: &str) -> f64 {
        fields[key].parse().expect("numeric field")
    }

    #[test]
    fn reader_names_nested_fields_and_array_elements() {
        let json = r#"{ "schema": "s-v1", "quick": false,
            "rows": [ {"bench": "a", "ns": 1.5}, {"bench": "b", "ns": -2e3} ],
            "inner": {"ratio": 1.25} }"#;
        let f = read(json).unwrap();
        let got: Vec<(&str, &str)> = f.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        assert_eq!(
            got,
            [
                ("inner.ratio", "1.25"),
                ("quick", "false"),
                ("rows.a.bench", "a"),
                ("rows.a.ns", "1.5"),
                ("rows.b.bench", "b"),
                ("rows.b.ns", "-2e3"),
                ("schema", "s-v1"),
            ]
        );
    }

    #[test]
    fn reader_rejects_what_the_emitters_never_write() {
        for bad in [
            "",
            "{}",
            r#"{"a": []}"#,
            r#"{"a": 1} x"#,
            r#"{"a": }"#,
            r#"{"a": "x\"y"}"#,
            r#"{"a": [1, 2]}"#,
            r#"{"a": [{"k": 1}, {"k": 1}]}"#,
            r#"{"a": 1 "b": 2}"#,
        ] {
            assert!(read(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn committed_artifacts_pass_their_own_clauses() {
        for (artifact, name) in [
            (Artifact::Wallclock, "BENCH_wallclock.json"),
            (Artifact::Scale, "BENCH_scale.json"),
        ] {
            let json = committed(name);
            assert_eq!(check(artifact, &json, &json), Ok(vec![]), "{name}");
        }
    }

    /// The two scale clauses a fresh run inherits through the `Same`
    /// clauses, checked on the committed artifact itself.
    #[test]
    fn committed_scale_tiers_grow_sublinearly_and_win() {
        /// Peak model memory between adjacent tiers may grow at most
        /// linearly in the tenant ratio, times this slack: memory must
        /// scale with tenants (directory, warm pool), never with
        /// requests. The slack covers the request slab and cold-start
        /// queues, whose peaks follow each tier's trace burstiness
        /// rather than its tenant count.
        const MEM_GROWTH_SLACK: f64 = 1.25;
        /// Least speculation win (baseline mean / spec mean) per tier.
        const MIN_SPEC_WIN: f64 = 1.15;
        let f = read(&committed("BENCH_scale.json")).unwrap();
        let mut tiers: Vec<(f64, f64)> = f
            .keys()
            .filter(|k| matches("tiers.*.tenants", k))
            .map(|k| {
                let tier = k.trim_end_matches(".tenants");
                let mem = num(&f, &format!("{tier}.baseline_peak_mem_bytes"))
                    .max(num(&f, &format!("{tier}.spec_peak_mem_bytes")));
                let win = num(&f, &format!("{tier}.speculation_win"));
                assert!(win >= MIN_SPEC_WIN, "{tier}: win {win} < {MIN_SPEC_WIN}");
                (num(&f, k), mem)
            })
            .collect();
        tiers.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(tiers.len(), 3, "tiers 10^2, 10^3 and 10^4 are committed");
        for w in tiers.windows(2) {
            let ((lo_t, lo_mem), (hi_t, hi_mem)) = (w[0], w[1]);
            let limit = hi_t / lo_t * MEM_GROWTH_SLACK;
            assert!(
                hi_mem / lo_mem <= limit,
                "memory grew {:.2}x from {lo_t} to {hi_t} tenants (limit {limit:.2}x)",
                hi_mem / lo_mem
            );
        }
    }

    /// Replaces one field's value in an artifact's text.
    fn with(json: &str, key: &str, from: &str, to: &str) -> String {
        let old = format!("\"{key}\": {from}");
        assert!(json.contains(&old), "{old} not in artifact");
        json.replacen(&old, &format!("\"{key}\": {to}"), 1)
    }

    #[test]
    fn wallclock_clauses_bound_step_cost_and_overhead() {
        let json = committed("BENCH_wallclock.json");
        let step = num(
            &read(&json).unwrap(),
            "event_queue.schedule_step.median_ns_per_op",
        );
        let slower = with(
            &json,
            "median_ns_per_op",
            &format!("{step:.2}"),
            &format!("{:.2}", step * 1.3),
        );
        let v = check(Artifact::Wallclock, &slower, &json).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("event_queue.schedule_step.median_ns_per_op"));
        let ratio = num(
            &read(&json).unwrap(),
            "instrumented_overhead.overhead_ratio",
        );
        let heavy = with(&json, "overhead_ratio", &format!("{ratio:.4}"), "1.6000");
        let v = check(Artifact::Wallclock, &heavy, &json).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("instrumented_overhead.overhead_ratio"));
    }

    #[test]
    fn scale_clauses_floor_throughput_and_pin_simulated_fields() {
        let json = committed("BENCH_scale.json");
        let f = read(&json).unwrap();
        let rps = f["tiers.1000.spec_req_per_sec"].clone();
        // Timing fields may move freely above the floors ...
        let faster = with(&json, "spec_req_per_sec", &rps, "999999.0");
        assert_eq!(check(Artifact::Scale, &faster, &json), Ok(vec![]));
        // ... but not below 0.35x the committed figure,
        let slow = json.replace(&rps, "50000.0");
        let v = check(Artifact::Scale, &slow, &json).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        // ... nor below the absolute floor, even against a slow blessing.
        let slower = json.replace(&rps, "20000.0");
        assert_eq!(check(Artifact::Scale, &slower, &slow).unwrap().len(), 1);
        // Any simulated field or the seed must match exactly.
        let mem = f["tiers.10000.spec_peak_mem_bytes"].clone();
        for drifted in [
            json.replacen(&mem, "1", 1),
            with(&json, "seed", &f["seed"], "1"),
        ] {
            assert_eq!(check(Artifact::Scale, &drifted, &json).unwrap().len(), 1);
        }
        // A run without the 1000-tenant tier fails the throughput clauses.
        let small = json.replace("\"tenants\": 1000,", "\"tenants\": 999,");
        let v = check(Artifact::Scale, &small, &json).unwrap();
        assert!(v.iter().any(|m| m.contains("no such field")), "{v:?}");
    }

    /// The untimed layout is the timed one without its wall-clock fields.
    #[test]
    fn untimed_scale_json_drops_only_timing() {
        use specfaas_platform::fleet::{ScaleConfig, ScaleEngine, TemplateProfile};
        use specfaas_sim::tracegen::TraceConfig;
        use std::sync::Arc;
        let run = |speculative| {
            let templates = specfaas_apps::all_app_specs()
                .iter()
                .map(|a| Arc::new(TemplateProfile::from_app(a)))
                .collect();
            let cfg = ScaleConfig::new(TraceConfig::new(5, 300, 7), speculative);
            ScaleEngine::new(cfg, templates).run()
        };
        let (base, spec) = (run(false), run(true));
        let tier = |wall_secs| TierRun {
            tenants: 5,
            requests: 300,
            baseline: &base,
            spec: &spec,
            wall_secs,
        };
        let timed = read(&scale_json(7, 300, Some(2), &[tier(Some([0.5, 0.25]))])).unwrap();
        let untimed = read(&scale_json(7, 300, None, &[tier(None)])).unwrap();
        assert_eq!(timed["tiers.5.spec_req_per_sec"], "1200.0");
        let mut kept = timed.clone();
        kept.retain(|k, _| {
            !TIMED.iter().any(|s| k.ends_with(s)) && k != "host_parallelism" && k != "jobs"
        });
        assert_eq!(kept, untimed);
    }
}
