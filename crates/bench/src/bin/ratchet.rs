//! Perf ratchet: compare freshly generated `BENCH_*.json` files against
//! committed baselines and fail on a >10% regression.
//!
//! ```text
//! cargo run -p bench --bin ratchet -- BENCH_pipeline.json target/bench/BENCH_pipeline.json \
//!                                     BENCH_elastic.json  target/bench/BENCH_elastic.json
//! ```
//!
//! Arguments are `baseline fresh` pairs. Each file is flattened into
//! `key path → number` entries (`configs[ring].p99_us`: an array element
//! is labeled by its `"name"` member when it has one, else by its
//! index) and the two files are matched **by path**. The two files must
//! expose the same paths — a shape change means the bench itself
//! changed, which requires a deliberate baseline refresh — and every
//! path missing from or new in the fresh file is named. Only two key
//! families are ratcheted:
//!
//! * keys containing `p99` — latency, higher is worse: fail when
//!   `fresh > baseline * 1.10`;
//! * keys containing `throughput`, `ops_per_sec`, or `gets_per_sec` —
//!   rate, lower is worse: fail when `fresh < baseline * 0.90`.
//!
//! Everything else (medians, counters, configuration echoes) is
//! informational and never fails the build. Exits non-zero listing every
//! regression found.

use std::collections::HashMap;

const TOLERANCE: f64 = 0.10;

/// The numeric leaves under one JSON value, by path relative to that
/// value, plus the value's `"name"` member when it is an object that
/// has one (the label its parent array files it under).
#[derive(Default)]
struct Node {
    leaves: Vec<(String, f64)>,
    name: Option<String>,
}

impl Node {
    /// Adopt `child`'s leaves under the path segment `segment`.
    fn adopt(&mut self, segment: &str, child: Node) {
        for (path, value) in child.leaves {
            let sep = if path.is_empty() || path.starts_with('[') {
                ""
            } else {
                "."
            };
            self.leaves.push((format!("{segment}{sep}{path}"), value));
        }
    }
}

/// A recursive-descent reader for the JSON our own bench bins emit. Not
/// a validator: it accepts exactly what it needs to walk the structure.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest.iter().take_while(|b| b.is_ascii_whitespace()).count();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(self.text[start..self.pos - 1].to_string());
                }
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
        Err(format!("unterminated string at byte {start}"))
    }

    fn value(&mut self) -> Result<Node, String> {
        let mut node = Node::default();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                while self.peek() != Some(b'}') {
                    let key = self.string()?;
                    self.expect(b':')?;
                    if key == "name" && self.peek() == Some(b'"') {
                        node.name = Some(self.string()?);
                    } else {
                        let child = self.value()?;
                        node.adopt(&key, child);
                    }
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    }
                }
                self.pos += 1;
            }
            Some(b'[') => {
                self.pos += 1;
                let mut labels: Vec<String> = Vec::new();
                while self.peek() != Some(b']') {
                    let child = self.value()?;
                    let index = labels.len();
                    let mut label = child.name.clone().unwrap_or_else(|| index.to_string());
                    if labels.contains(&label) {
                        // Rows sharing a name (one per thread count, say)
                        // stay distinct paths.
                        label = format!("{label}#{index}");
                    }
                    node.adopt(&format!("[{label}]"), child);
                    labels.push(label);
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    }
                }
                self.pos += 1;
            }
            Some(b'"') => {
                self.string()?;
            }
            Some(_) => {
                let rest = &self.text[self.pos..];
                let len = rest
                    .find(|c: char| c == ',' || c == '}' || c == ']' || c.is_whitespace())
                    .unwrap_or(rest.len());
                // `true`, `false` and `null` are not numbers: skipped.
                if let Ok(v) = rest[..len].parse::<f64>() {
                    node.leaves.push((String::new(), v));
                }
                self.pos += len.max(1);
            }
            None => return Err("unexpected end of document".to_string()),
        }
        Ok(node)
    }
}

/// Every `key path → number` entry of a JSON document, in document order.
fn flatten(text: &str) -> Result<Vec<(String, f64)>, String> {
    Ok(Reader { text, pos: 0 }.value()?.leaves)
}

/// Direction a ratcheted key regresses in, if it is ratcheted at all.
enum Rule {
    HigherIsWorse,
    LowerIsWorse,
    Ignore,
}

fn rule_for(path: &str) -> Rule {
    // The rule follows the leaf key, not the row it sits in.
    let key = path.rsplit(['.', ']']).next().unwrap_or(path);
    if key.contains("p99") {
        Rule::HigherIsWorse
    } else if key.contains("throughput") || key.contains("ops_per_sec") || key.contains("per_sec") {
        Rule::LowerIsWorse
    } else {
        Rule::Ignore
    }
}

/// Compare one fresh document against its baseline. Returns how many
/// ratcheted metrics were checked and one line per problem found: a
/// path only one of the files has, or a regression beyond tolerance.
fn compare(base: &str, fresh: &str) -> Result<(usize, Vec<String>), String> {
    let base = flatten(base).map_err(|e| format!("baseline: {e}"))?;
    let fresh_list = flatten(fresh).map_err(|e| format!("fresh: {e}"))?;
    let fresh: HashMap<&str, f64> = fresh_list.iter().map(|(p, v)| (p.as_str(), *v)).collect();

    let mut problems = Vec::new();
    let mut checked = 0usize;
    for (path, was) in &base {
        let Some(now) = fresh.get(path.as_str()) else {
            problems.push(format!("{path} is missing from the fresh file"));
            continue;
        };
        let verdict = match rule_for(path) {
            Rule::HigherIsWorse if *was > 0.0 => {
                checked += 1;
                (*now > was * (1.0 + TOLERANCE)).then_some("rose")
            }
            Rule::LowerIsWorse if *was > 0.0 => {
                checked += 1;
                (*now < was * (1.0 - TOLERANCE)).then_some("fell")
            }
            _ => None,
        };
        if let Some(direction) = verdict {
            problems.push(format!(
                "{path} {direction} {was:.1} -> {now:.1} ({:+.1}% vs {:.0}% tolerance)",
                (now / was - 1.0) * 100.0,
                TOLERANCE * 100.0,
            ));
        }
    }
    for (path, _) in &fresh_list {
        if !base.iter().any(|(p, _)| p == path) {
            problems.push(format!(
                "{path} is new in the fresh file (bench changed? refresh the committed baseline)"
            ));
        }
    }
    Ok((checked, problems))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("ratchet: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: ratchet <baseline.json> <fresh.json> [<baseline.json> <fresh.json> ...]");
        std::process::exit(2);
    }

    let mut regressions = Vec::new();
    let mut checked = 0usize;
    for pair in args.chunks(2) {
        let (base_path, fresh_path) = (&pair[0], &pair[1]);
        let problems = match compare(&read(base_path), &read(fresh_path)) {
            Ok((n, problems)) => {
                checked += n;
                problems
            }
            Err(e) => vec![format!("unreadable JSON ({e})")],
        };
        if problems.is_empty() {
            println!("ratchet: {fresh_path} vs {base_path}: ok");
        } else {
            println!("ratchet: {fresh_path} vs {base_path}: REGRESSED");
        }
        regressions.extend(problems.into_iter().map(|p| format!("{fresh_path}: {p}")));
    }

    println!(
        "ratchet: {checked} metrics checked across {} file pair(s)",
        args.len() / 2
    );
    if !regressions.is_empty() {
        eprintln!("ratchet: {} regression(s):", regressions.len());
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
    println!(
        "ratchet: no regressions beyond {:.0}% tolerance",
        TOLERANCE * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "experiment": "placement", "nodes": 3, "ok": true,
      "configs": [
        {"name": "ring", "creates": 1000, "p50_us": 4373.6, "p99_us": 6559.0},
        {"name": "legacy", "creates": 1000, "p50_us": 2763.0, "p99_us": 5114.7}
      ],
      "tiers": [{"ops": 10, "lat": [{"p99_us": 1.5}, {"p99_us": 2.5}]}],
      "throughput_ops_per_sec": 78
    }"#;

    #[test]
    fn paths_name_rows_by_name_else_index_through_nested_arrays() {
        let paths: Vec<String> = flatten(BASE).unwrap().into_iter().map(|(p, _)| p).collect();
        assert_eq!(
            paths,
            [
                "nodes",
                "configs[ring].creates",
                "configs[ring].p50_us",
                "configs[ring].p99_us",
                "configs[legacy].creates",
                "configs[legacy].p50_us",
                "configs[legacy].p99_us",
                "tiers[0].ops",
                "tiers[0].lat[0].p99_us",
                "tiers[0].lat[1].p99_us",
                "throughput_ops_per_sec",
            ]
        );
        // Rows that share a name stay distinct.
        let dup = r#"{"rows": [{"name": "a", "x": 1}, {"name": "a", "x": 2}]}"#;
        let paths: Vec<String> = flatten(dup).unwrap().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, ["rows[a].x", "rows[a#1].x"]);
    }

    #[test]
    fn identical_documents_pass_and_count_the_ratcheted_keys() {
        let (checked, problems) = compare(BASE, BASE).unwrap();
        assert_eq!(checked, 5, "four p99 keys and one throughput");
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn a_removed_row_names_each_missing_key_and_still_checks_the_rest() {
        let fresh = BASE.replace(
            r#"{"name": "legacy", "creates": 1000, "p50_us": 2763.0, "p99_us": 5114.7}"#,
            r#"{"name": "inline", "p99_us": 1.0}"#,
        );
        let fresh = fresh.replace(r#""p99_us": 6559.0"#, r#""p99_us": 9000.0"#);
        let (checked, problems) = compare(BASE, &fresh).unwrap();
        assert_eq!(checked, 4, "the surviving rows are still ratcheted");
        let has = |needle: &str| problems.iter().any(|p| p.contains(needle));
        assert!(has("configs[legacy].creates is missing"), "{problems:?}");
        assert!(has("configs[legacy].p50_us is missing"));
        assert!(has("configs[legacy].p99_us is missing"));
        assert!(has("configs[inline].p99_us is new"));
        assert!(has("configs[ring].p99_us rose 6559.0 -> 9000.0"));
        assert_eq!(problems.len(), 5);
    }

    #[test]
    fn a_regressed_p99_or_throughput_fails_but_ten_percent_is_tolerated() {
        let within = BASE
            .replace(r#""p99_us": 2.5"#, r#""p99_us": 2.74"#)
            .replace(r#"_per_sec": 78"#, r#"_per_sec": 71"#);
        assert!(compare(BASE, &within).unwrap().1.is_empty());

        let beyond = BASE
            .replace(r#""p99_us": 2.5"#, r#""p99_us": 2.8"#)
            .replace(r#"_per_sec": 78"#, r#"_per_sec": 70"#);
        let problems = compare(BASE, &beyond).unwrap().1;
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("tiers[0].lat[1].p99_us rose 2.5 -> 2.8"));
        assert!(problems[1].starts_with("throughput_ops_per_sec fell 78.0 -> 70.0"));
        // A median may move freely.
        let median = BASE.replace(r#""p50_us": 4373.6"#, r#""p50_us": 9999.9"#);
        assert!(compare(BASE, &median).unwrap().1.is_empty());
    }
}
