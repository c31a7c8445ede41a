//! Timed blocks: a fixed number of samples between two calibration-sentinel
//! readings (rules R3 and R4).

use crate::host::Sentinel;
use std::time::Instant;

/// Sentinel readings further apart than this mark the block between them.
const SENTINEL_TOLERANCE: f64 = 0.10;

/// How many samples the blocks of a run take.  Counts are fixed by the
/// command line alone, so every commit takes the same number.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divisor of every workload's N (`--smoke` uses 8).
    pub n_div: usize,
    /// `--seconds` over the nominal `run_seconds` of BENCHMARK.json.
    pub factor: f64,
    /// `--smoke`: three samples per metric.
    pub smoke: bool,
}

impl Scale {
    /// `nominal` samples at the nominal `--seconds`, never fewer than three.
    pub fn samples(&self, nominal: usize) -> usize {
        if self.smoke {
            3
        } else {
            ((nominal as f64 * self.factor).round() as usize).max(3)
        }
    }

    /// Seconds of an open-loop phase that lasts `nominal` at the nominal
    /// `--seconds`.
    pub fn duration(&self, nominal: f64) -> f64 {
        if self.smoke {
            (nominal / 8.0).max(1.0)
        } else {
            (nominal * self.factor).max(1.0)
        }
    }

    pub fn n(&self, nominal: usize) -> usize {
        nominal / self.n_div
    }

    /// Each metric's samples are taken in rounds, the rounds of the metrics
    /// interleaved (set-ups, ops, alts, set-ups, ...), so that every metric
    /// samples the whole run and, where a round builds a new model, several
    /// placements of the model in memory.  `nominal` rounds; one for
    /// `--smoke`.
    pub fn rounds(&self, nominal: usize) -> usize {
        if self.smoke {
            1
        } else {
            nominal
        }
    }

    /// Samples per round for a metric with `nominal` samples per run taken
    /// in `rounds` rounds.
    pub fn per_round(&self, nominal: usize, rounds: usize) -> usize {
        self.samples(nominal).div_ceil(self.rounds(rounds))
    }
}

/// Run-wide measuring state: the sentinel and what it has seen.
pub struct Meter {
    sentinel: Sentinel,
    /// Every sentinel reading, in order.
    pub calibration: Vec<f64>,
    /// Blocks whose two sentinel readings were more than 10 % apart.
    pub noisy_blocks: Vec<String>,
    /// The last reading and when it was taken; a block that starts right
    /// after another reuses it as its "before".
    last: Option<(Instant, f64)>,
}

impl Meter {
    pub fn new() -> Meter {
        let mut sentinel = Sentinel::new();
        sentinel.read(); // page in and warm the sentinel's own matrices
        Meter {
            sentinel,
            calibration: Vec::new(),
            noisy_blocks: Vec::new(),
            last: None,
        }
    }

    pub fn noisy(&self) -> bool {
        !self.noisy_blocks.is_empty()
    }

    /// One sentinel reading.
    pub fn reading(&mut self) -> f64 {
        let at = self.sentinel.read();
        self.calibration.push(at);
        self.last = Some((Instant::now(), at));
        at
    }

    /// Rule R4.  Run `body` (which takes all samples of one block and
    /// returns them) between two sentinel readings; if they are more than
    /// 10 % apart the host changed speed under the block, the block is named
    /// in the run file and the run marked noisy.  README.md says why the
    /// block is not measured again.
    pub fn block<T>(&mut self, name: &str, body: impl FnOnce() -> T) -> T {
        let before = match self.last {
            Some((at, reading)) if at.elapsed().as_secs_f64() < 0.02 => reading,
            _ => self.reading(),
        };
        let out = body();
        let after = self.reading();
        if (before - after).abs() / before.min(after) > SENTINEL_TOLERANCE {
            self.noisy_blocks.push(name.to_string());
        }
        out
    }

    /// `warmups` untimed calls of `op`, then `n` samples of it, as one block.
    /// `op` times its own region (so it can prepare untimed) and returns the
    /// seconds, or `None` when the operation failed: failures are counted
    /// and leave no sample.
    pub fn samples(
        &mut self,
        name: &str,
        warmups: usize,
        n: usize,
        tally: &mut Tally,
        mut op: impl FnMut() -> Option<f64>,
    ) -> Vec<f64> {
        let times = self.block(name, || {
            for _ in 0..warmups {
                op();
            }
            (0..n).filter_map(|_| op()).collect::<Vec<f64>>()
        });
        tally.attempted += n as u64;
        tally.failed += (n - times.len()) as u64;
        times
    }
}

/// Operations attempted and failed over the run; a refused operation counts
/// as failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Wall time of one call.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
