//! Order statistics of timing samples, and the seeded generator every
//! benchmark input that is not a point set comes from.

/// Median of a non-empty sample (mean of the two middle values for even n).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the acceptance rule for this benchmark uses.  Needs n >= 2.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The value of every timed end-to-end metric: the median of the fastest
/// tenth of a non-empty sample (of its `n / 10` smallest values; the smallest
/// one when n < 20).  A shared host only ever adds time to a sample, in
/// bursts that last seconds and took from none to five sixths of a run, so
/// the slower samples say how busy the neighbours were and only the fastest
/// how long the operation takes; README.md has the measurements.  The median
/// of that tenth, not the minimum, keeps one lucky sample from setting the
/// value once n >= 30.
pub fn fast_tenth(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "fast tenth of an empty sample");
    median(&s[..(s.len() / 10).max(1)])
}

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// What a run file records for every timed metric (rule R3).
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    /// [`fast_tenth`]: the value of an end-to-end metric.
    pub fast: f64,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Reported only where at least ten samples lie beyond it (n >= 100).
    pub p90: Option<f64>,
    pub max: f64,
}

impl Summary {
    /// Of an empty sample every statistic is NaN, which fails the run's
    /// finite-metrics check instead of panicking here.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            let nan = f64::NAN;
            return Summary {
                n: 0,
                fast: nan,
                min: nan,
                q1: nan,
                median: nan,
                q3: nan,
                p90: None,
                max: nan,
            };
        }
        let s = sorted(values);
        let (q1, q3) = if s.len() >= 2 {
            quartiles(&s)
        } else {
            (s[0], s[0])
        };
        Summary {
            n: s.len(),
            fast: fast_tenth(&s),
            min: s[0],
            q1,
            median: median(&s),
            q3,
            p90: (s.len() >= 100).then(|| percentile(&s, 90.0)),
            max: s[s.len() - 1],
        }
    }
}

/// xoshiro256++ seeded through splitmix64.  Kept inside the benchmark so the
/// right-hand sides, sampled rows and request streams depend on `--seed`
/// alone, not on the repository's vendored `rand`.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// `k` distinct indices out of `0..n`, ascending.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < k {
            chosen.insert(self.below(n));
        }
        chosen.into_iter().collect()
    }
}

/// `--self-test`: the helpers above on fixed vectors.
pub fn self_test() -> Vec<(&'static str, bool)> {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, q3) = quartiles(&ten);
    let (r1, r3) = quartiles(&[3.0, 1.0, 2.0]);
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = Summary::of(&hundred);
    let mut a = Rng::new(6);
    let mut b = Rng::new(6);
    let mut c = Rng::new(7);
    let same = (0..8).all(|_| a.next_u64() == b.next_u64());
    let differs = (0..8).any(|_| a.next_u64() != c.next_u64());
    let picks = Rng::new(1).distinct(100, 10);
    vec![
        ("median.odd", median(&[5.0, 1.0, 3.0]) == 3.0),
        ("median.even", median(&[4.0, 1.0, 3.0, 2.0]) == 2.5),
        // the fastest tenth of 1..=100 is 1..=10
        ("fast_tenth.hundred", s.fast == 5.5),
        ("fast_tenth.under_twenty_is_min", fast_tenth(&ten) == 1.0),
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        ("quartiles.ten", q1 == 2.75 && q3 == 8.25),
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        ("quartiles.three", r1 == 1.0 && r3 == 3.0),
        ("percentile.p90", percentile(&hundred, 90.0) == 90.0),
        ("percentile.p50", percentile(&ten, 50.0) == 5.0),
        ("percentile.p100", percentile(&ten, 100.0) == 10.0),
        (
            "summary.p90_needs_100",
            s.p90 == Some(90.0) && Summary::of(&ten).p90.is_none(),
        ),
        (
            "summary.range",
            s.min == 1.0 && s.max == 100.0 && s.n == 100,
        ),
        ("rng.same_seed_same_stream", same),
        ("rng.other_seed_other_stream", differs),
        (
            "rng.distinct",
            picks.len() == 10 && picks.windows(2).all(|w| w[0] < w[1]) && picks[9] < 100,
        ),
    ]
}
