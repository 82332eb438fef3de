//! Identifier newtypes shared across the workspace.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies a job (one submitted application instance) for the lifetime of
/// a simulation run.
///
/// Job ids are dense and assigned in submission order by the queuing system,
/// which makes them usable as indices into per-job tables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u32);

/// Identifies a physical CPU of the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CpuId(pub u16);

impl JobId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CpuId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A map keyed by [`JobId`], hashed by [`JobIdHasher`].
///
/// Policies and the machine keep per-job state in these maps and read them
/// on every decision, where SipHash's cost shows. Job ids are assigned by
/// the queuing system, not read from outside the program, so the collision
/// resistance SipHash buys is not needed. Iteration order is unspecified, as
/// with any `HashMap`: nothing that reaches an output may depend on it.
pub type JobMap<V> = HashMap<JobId, V, BuildHasherDefault<JobIdHasher>>;

/// Hashes a [`JobId`] with one multiplication by 2⁶⁴/φ (Fibonacci
/// hashing), which spreads dense ids over the high bits the map's control
/// bytes use.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobIdHasher(u64);

impl JobIdHasher {
    const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::FIBONACCI);
    }
}

impl Hasher for JobIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.mix(u64::from(id));
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(JobId(3).to_string(), "job3");
        assert_eq!(CpuId(17).to_string(), "cpu17");
    }

    #[test]
    fn job_map_keys_by_id() {
        let mut map: JobMap<&str> = JobMap::default();
        for id in 0..1_000 {
            map.insert(JobId(id), "job");
        }
        map.remove(&JobId(7));
        assert_eq!(map.len(), 999);
        assert!(map.contains_key(&JobId(999)) && !map.contains_key(&JobId(7)));
    }

    #[test]
    fn job_id_hash_is_one_multiplication() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<JobIdHasher>::default();
        let hash = |id: JobId| build.hash_one(id);
        assert_eq!(hash(JobId(0)), 0);
        assert_eq!(hash(JobId(1)), JobIdHasher::FIBONACCI);
        assert_eq!(hash(JobId(3)), JobIdHasher::FIBONACCI.wrapping_mul(3));
    }

    #[test]
    fn indexing() {
        assert_eq!(JobId(42).index(), 42);
        assert_eq!(CpuId(9).index(), 9);
    }
}
