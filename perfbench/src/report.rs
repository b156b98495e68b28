//! What one benchmark run reports: operations attempted and failed, and
//! the named metrics, printed last as one JSON line.

/// Operations, their check failures, and the metrics of one run.
#[derive(Debug, Default)]
pub struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Run {
    /// Count one checked operation; `problems` lists what its check found
    /// wrong (empty when the output is correct).
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in &problems {
                eprintln!("check failed: {p}");
            }
            self.problems.extend(problems);
        }
    }

    /// Count one operation that a known fault of the program makes fail
    /// on every input: a failure counts in `failed` but leaves the run
    /// correct, since correctness speaks of the other operations.
    pub fn faulty_op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in &problems {
                eprintln!("known fault: {p}");
            }
        }
    }

    /// Set a metric, replacing an earlier value of the same name.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => *m = (name.to_string(), value, unit),
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// One metric per line for a reader, then the result line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_full_precision() {
        let mut run = Run::default();
        run.op(Vec::new());
        run.set("solve_s", 1.0 / 3.0, "s");
        run.set("solve_s", 0.1 + 0.2, "s");
        assert_eq!(
            run.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_is_counted_and_marks_the_run_incorrect() {
        let mut run = Run::default();
        run.op(vec!["residual off".into()]);
        run.op(Vec::new());
        assert_eq!((run.attempted, run.failed, run.correct()), (2, 1, false));
    }

    #[test]
    fn a_known_fault_is_counted_but_leaves_the_run_correct() {
        let mut run = Run::default();
        run.faulty_op(vec!["padded halo".into()]);
        run.faulty_op(Vec::new());
        assert_eq!((run.attempted, run.failed, run.correct()), (2, 1, true));
    }
}
