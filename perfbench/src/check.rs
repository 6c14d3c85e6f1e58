//! Output checks and output digests.
//!
//! Every workload pass feeds its invariants into [`Checks`] and its
//! outputs into a [`Digest`]. Failed checks count against the run's
//! `check_fail_ratio`; the digest pins the exact outputs for the
//! recorded seeds.

/// Attempted and failed output checks, with a message per failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
    }

    /// Records `a == b`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        let ok = a == b;
        self.check(ok, || format!("{}: {:?} != {:?}", what, a, b));
    }

    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// 64-bit FNV-1a over the outputs, fed field by field. Floats enter by
/// bit pattern, so a digest pins outputs exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
        self
    }

    pub fn u32s(&mut self, vs: &[u32]) -> &mut Self {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
        self
    }

    /// Feeds another digest into this one.
    pub fn digest(&mut self, other: Digest) -> &mut Self {
        self.u64(other.0)
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Pinned output digests, one line per `workload size seed digest`
/// (`#` starts a comment).
pub struct Pins(Vec<(String, String, u64, String)>);

impl Pins {
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let seed = f.get(2).and_then(|s| s.parse().ok());
            match (f.len(), seed) {
                (4, Some(seed)) => {
                    pins.push((f[0].to_string(), f[1].to_string(), seed, f[3].to_string()))
                }
                _ => return Err(format!("digest pin line {}: {:?}", i + 1, line)),
            }
        }
        Ok(Pins(pins))
    }

    /// The pinned digest for this workload, size, and seed, if any.
    pub fn get(&self, workload: &str, size: &str, seed: u64) -> Option<&str> {
        self.0
            .iter()
            .find(|(w, s, sd, _)| w == workload && s == size && *sd == seed)
            .map(|(_, _, _, d)| d.as_str())
    }
}
