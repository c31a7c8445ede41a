//! One run's state and its three outputs: the table on stdout, the run file
//! under `--out`, and the one-line result the driver reads.

use crate::host;
use crate::json::{number, Json};
use crate::measure::{Meter, Scale, Tally};
use crate::spec::{self, Workload};
use crate::stats::Summary;
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub const RUN_SCHEMA: &str = "matrox-benchmark-run/1";

pub struct Metric {
    pub value: f64,
    pub summary: Option<Summary>,
    /// The samples behind a timed metric, in the order they were taken.
    pub samples: Vec<f64>,
}

pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub struct Run {
    pub workload: &'static Workload,
    pub seed: u64,
    pub scale: Scale,
    pub traced: bool,
    pub out_dir: PathBuf,
    pub pool_width: usize,
    pub meter: Meter,
    pub tally: Tally,
    pub metrics: BTreeMap<String, Metric>,
    pub checks: Vec<Check>,
}

impl Run {
    pub fn new(
        workload: &'static Workload,
        seed: u64,
        scale: Scale,
        traced: bool,
        out_dir: PathBuf,
        pool_width: usize,
    ) -> Run {
        let mut run = Run {
            workload,
            seed,
            scale,
            traced,
            out_dir,
            pool_width,
            meter: Meter::new(),
            tally: Tally::default(),
            metrics: BTreeMap::new(),
            checks: Vec::new(),
        };
        run.check(
            "host.pool_width_is_1",
            pool_width == 1,
            format!("rayon::current_num_threads() = {pool_width} after pinning the global pool (rule R1)"),
        );
        run
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                summary: None,
                samples: Vec::new(),
            },
        );
    }

    /// A timed per-layer metric: its value is the median of the samples.
    pub fn set_timed(&mut self, name: &str, samples: Vec<f64>) {
        let summary = Summary::of(&samples);
        self.set_summarised(name, summary.median, summary, samples);
    }

    /// A timed end-to-end metric: its value is the median of the fastest
    /// tenth of the samples ([`crate::stats::fast_tenth`], rule R3); the run
    /// file carries the whole distribution beside it.
    pub fn set_fast(&mut self, name: &str, samples: Vec<f64>) {
        let summary = Summary::of(&samples);
        self.set_summarised(name, summary.fast, summary, samples);
    }

    fn set_summarised(&mut self, name: &str, value: f64, summary: Summary, samples: Vec<f64>) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                summary: Some(summary),
                samples,
            },
        );
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// A failed step that leaves nothing to measure: record it and move on.
    pub fn fail(&mut self, name: &str, error: impl std::fmt::Display) {
        self.check(name, false, error.to_string());
    }

    fn expected(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            spec::PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
        } else {
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Fill the layers this workload bypasses with 0 and check that the
    /// metric set is exactly the one `BENCHMARK.json` names for this mode.
    fn close_metric_set(&mut self) {
        let expected = self.expected();
        for (name, _) in &expected {
            if !self.metrics.contains_key(*name)
                && self.workload.bypasses.contains(&spec::layer_of(name))
            {
                self.set(name, 0.0);
            }
        }
        let missing: Vec<&str> = expected
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.metrics.contains_key(*n))
            .collect();
        let extra: Vec<String> = self
            .metrics
            .keys()
            .filter(|k| !expected.iter().any(|(n, _)| n == k))
            .cloned()
            .collect();
        let not_finite: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, m)| !m.value.is_finite())
            .map(|(k, _)| k.clone())
            .collect();
        self.check(
            "metrics.exactly_the_named_set",
            missing.is_empty() && extra.is_empty() && not_finite.is_empty(),
            format!("missing {missing:?}, unexpected {extra:?}, not finite {not_finite:?}"),
        );
        if !self.traced {
            let ceiling = self.workload.rel_err_ceiling;
            let rel_err = self.metrics.get("rel_err").map_or(f64::NAN, |m| m.value);
            self.check(
                "rel_err.under_ceiling",
                rel_err <= ceiling,
                format!("rel_err {rel_err:e} against the workload's ceiling {ceiling:e}"),
            );
        }
    }

    fn metrics_json(&self, with_summary: bool) -> Json {
        let expected = self.expected();
        let pairs = expected
            .iter()
            .filter_map(|(name, unit)| self.metrics.get(*name).map(|m| (name, unit, m)))
            .map(|(name, unit, m)| {
                let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(*unit))];
                if let (true, Some(s)) = (with_summary, &m.summary) {
                    fields.extend([
                        ("n", Json::Num(s.n as f64)),
                        ("min", Json::Num(s.min)),
                        ("q1", Json::Num(s.q1)),
                        ("median", Json::Num(s.median)),
                        ("q3", Json::Num(s.q3)),
                        ("max", Json::Num(s.max)),
                    ]);
                    if let Some(p90) = s.p90 {
                        fields.push(("p90", Json::Num(p90)));
                    }
                    // In time order, so a host that changed speed shows.
                    fields.push((
                        "samples",
                        Json::Arr(m.samples.iter().map(|v| Json::Num(*v)).collect()),
                    ));
                }
                (name.to_string(), Json::obj(fields))
            })
            .collect();
        Json::Obj(pairs)
    }

    /// Print, write and return the process exit code.
    pub fn finish(mut self, recorder: Option<&Recorder>) -> i32 {
        self.close_metric_set();
        let correct = self.checks.iter().all(|c| c.ok);
        let noisy = self.meter.noisy();
        let mode = if self.traced { "traced" } else { "untraced" };

        println!(
            "\n== {} ({mode}, seed {}, pool width {}{}) ==",
            self.workload.name,
            self.seed,
            self.pool_width,
            if self.scale.smoke { ", smoke" } else { "" }
        );
        println!("why: {}", self.workload.why);
        for (name, unit) in self.expected() {
            if let Some(m) = self.metrics.get(name) {
                let spread = m.summary.as_ref().map_or(String::new(), |s| {
                    format!(
                        "   n={} min={} q1={} median={} q3={}",
                        s.n,
                        number(s.min),
                        number(s.q1),
                        number(s.median),
                        number(s.q3)
                    )
                });
                println!("  {name:<28} {:>22} {unit:<6}{spread}", number(m.value));
            }
        }
        println!(
            "  attempted {}  failed {}  noisy {noisy}",
            self.tally.attempted, self.tally.failed
        );
        for c in &self.checks {
            println!(
                "  [{}] {} — {}",
                if c.ok { "ok" } else { "FAILED" },
                c.name,
                c.detail
            );
        }

        let file = Json::obj(vec![
            ("schema", Json::str(RUN_SCHEMA)),
            ("workload", Json::str(self.workload.name)),
            ("why", Json::str(self.workload.why)),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("smoke", Json::Bool(self.scale.smoke)),
            ("seconds_factor", Json::Num(self.scale.factor)),
            ("n_divisor", Json::Num(self.scale.n_div as f64)),
            ("host", host::fingerprint(self.pool_width)),
            ("noisy", Json::Bool(noisy)),
            (
                "noisy_blocks",
                Json::Arr(self.meter.noisy_blocks.iter().map(Json::str).collect()),
            ),
            (
                "calibration_s",
                Json::Arr(
                    self.meter
                        .calibration
                        .iter()
                        .map(|v| Json::Num(*v))
                        .collect(),
                ),
            ),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", self.metrics_json(true)),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::str(&c.name)),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let stem = if self.traced {
            format!("{}.layers", self.workload.name)
        } else {
            self.workload.name.to_string()
        };
        let mut written = write_file(&self.out_dir, &format!("{stem}.json"), &file.pretty());
        if let Some(rec) = recorder {
            let trace = rec.to_json(self.workload.name).compact();
            written &= write_file(
                &self.out_dir,
                &format!("{}.trace.json", self.workload.name),
                &trace,
            );
        }

        // The driver reads the last line of stdout.
        let result = Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ]);
        println!("{}", result.compact());
        if correct && written {
            0
        } else {
            1
        }
    }
}

fn write_file(dir: &std::path::Path, name: &str, contents: &str) -> bool {
    let path = dir.join(name);
    let result = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents));
    match result {
        Ok(()) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            false
        }
    }
}
