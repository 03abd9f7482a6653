//! Collects metrics, phase counts, gates and provenance for one run and
//! prints them: a human-readable report, then the result line.

use mga_obs::json::{self, Json};

/// Attempted / succeeded / failed operations of one phase.
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    phases: Vec<Phase>,
    gates: Vec<(String, bool, String)>,
    prov: Vec<(&'static str, String)>,
}

/// The metric names and units `BENCHMARK.json` declares, and the
/// length of one run.
pub struct Declared {
    pub run_seconds: f64,
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Declared {
    /// Read `run_seconds` and the `end_to_end` and `per_layer` lists of
    /// `BENCHMARK.json`.
    pub fn load() -> Result<Declared, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Declared {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .filter(|s| *s > 0.0)
                .ok_or("BENCHMARK.json has no positive run_seconds")?,
            end_to_end: names(&doc, "end_to_end")?,
            per_layer: names(&doc, "per_layer")?,
        })
    }
}

fn names(doc: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json {key} entry without name/unit")),
            }
        })
        .collect()
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    pub fn phase(&mut self, name: impl Into<String>, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name: name.into(),
            attempted,
            succeeded: attempted - failed,
            failed,
        });
    }

    /// Record a correctness gate; a failed gate makes the run incorrect.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.gates.push((name.into(), ok, detail.into()));
    }

    pub fn prov(&mut self, key: &'static str, value: impl ToString) {
        self.prov.push((key, value.to_string()));
    }

    pub fn prov_value(&self, key: &str) -> Option<&str> {
        self.prov
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.1)
    }

    /// Operations that count as failed in the result line: sheds and
    /// typed errors of every phase.
    fn totals(&self) -> (u64, u64) {
        self.phases
            .iter()
            .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
    }

    /// The values of `names` as a JSON object (names without a value
    /// are left out).
    pub fn metrics_json(&self, names: &[(String, String)]) -> String {
        let fields: Vec<String> = names
            .iter()
            .filter_map(|(n, _)| self.get(n).map(|v| format!("{}:{v:?}", json::escape(n))))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    pub fn prov_json(&self) -> String {
        let fields: Vec<String> = self
            .prov
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json::escape(v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// Print the human-readable report, then the result line with the
    /// declared metrics. Returns an error naming any declared metric the
    /// run did not produce.
    pub fn emit(&self, declared: &[(String, String)]) -> Result<(), String> {
        for (k, v) in &self.prov {
            println!("prov    {k:<24} {v}");
        }
        for p in &self.phases {
            println!(
                "phase   {:<24} attempted {:>9}  succeeded {:>9}  failed {:>7}",
                p.name, p.attempted, p.succeeded, p.failed
            );
        }
        for (name, ok, detail) in &self.gates {
            println!(
                "gate    {name:<40} {}  {detail}",
                if *ok { "ok  " } else { "FAIL" }
            );
        }
        let mut fields = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in declared {
            match self.get(name) {
                Some(v) if v.is_finite() => {
                    println!("metric  {name:<32} {v:>16.6} {unit}");
                    fields.push(format!(
                        "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                        json::escape(name),
                        json::escape(unit)
                    ));
                }
                _ => missing.push(name.clone()),
            }
        }
        if !missing.is_empty() {
            return Err(format!("run produced no value for {}", missing.join(", ")));
        }
        let (attempted, failed) = self.totals();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            attempted.max(1),
            fields.join(", ")
        );
        Ok(())
    }
}
