//! Tunable-parameter dictionaries (`params` in KernelTuner).

use std::collections::BTreeMap;

use archsim::MegaHertz;

/// The reserved key controlling the device compute clock.
pub const FREQ_KEY: &str = "gpu_freq";

/// The reserved key controlling the device memory clock (P-state).
pub const MEM_FREQ_KEY: &str = "gpu_mem_freq";

/// An ordered dictionary of tunable parameters, each with a list of values —
/// KernelTuner's `params` argument.
#[derive(Debug, Clone, Default)]
pub struct ParamSpace {
    axes: BTreeMap<String, Vec<f64>>,
}

impl ParamSpace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a generic tunable axis. Replaces an existing axis of that name.
    pub fn add(&mut self, key: &str, values: Vec<f64>) -> &mut Self {
        assert!(!values.is_empty(), "axis {key:?} needs at least one value");
        self.axes.insert(key.to_string(), values);
        self
    }

    /// Add the GPU-frequency axis as an inclusive range with a step, highest
    /// first (the order NVML enumerates supported clocks).
    pub fn add_frequency_range(&mut self, lo: MegaHertz, hi: MegaHertz, step: u32) -> &mut Self {
        assert!(step > 0 && hi >= lo);
        let mut values = Vec::new();
        let mut f = hi.0;
        loop {
            values.push(f as f64);
            if f < lo.0 + step {
                break;
            }
            f -= step;
        }
        self.add(FREQ_KEY, values)
    }

    /// Add an explicit list of frequencies.
    pub fn add_frequencies(&mut self, freqs: &[MegaHertz]) -> &mut Self {
        self.add(FREQ_KEY, freqs.iter().map(|f| f.0 as f64).collect())
    }

    /// Add the memory-clock axis from a device's P-state table (descending,
    /// as NVML enumerates supported memory clocks).
    pub fn add_memory_frequencies(&mut self, pstates: &[MegaHertz]) -> &mut Self {
        self.add(MEM_FREQ_KEY, pstates.iter().map(|f| f.0 as f64).collect())
    }

    /// Total configurations in the cartesian product.
    pub fn size(&self) -> usize {
        self.axes
            .values()
            .map(Vec::len)
            .product::<usize>()
            .max(usize::from(self.axes.is_empty()))
    }

    /// Enumerate the full cartesian product, in lexicographic axis order.
    pub fn enumerate(&self) -> Vec<ParamValues> {
        let keys: Vec<&String> = self.axes.keys().collect();
        let mut out = vec![ParamValues::default()];
        for key in keys {
            let values = &self.axes[key];
            let mut next = Vec::with_capacity(out.len() * values.len());
            for base in &out {
                for &v in values {
                    let mut a = base.clone();
                    a.values.insert(key.clone(), v);
                    next.push(a);
                }
            }
            out = next;
        }
        out
    }
}

/// One concrete assignment of every tunable parameter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamValues {
    values: BTreeMap<String, f64>,
}

impl ParamValues {
    /// Look up a parameter.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// The GPU frequency, if this space tunes one.
    pub fn frequency(&self) -> Option<MegaHertz> {
        self.get(FREQ_KEY).map(|f| MegaHertz(f.round() as u32))
    }

    /// The memory clock (P-state), if this space tunes one.
    pub fn memory_frequency(&self) -> Option<MegaHertz> {
        self.get(MEM_FREQ_KEY).map(|f| MegaHertz(f.round() as u32))
    }

    /// All parameters, ordered by key.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

impl std::fmt::Display for ParamValues {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.iter().map(|(k, v)| format!("{k}={v}")).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_range_enumerates_descending() {
        let mut p = ParamSpace::new();
        p.add_frequency_range(MegaHertz(1005), MegaHertz(1410), 45);
        let all = p.enumerate();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].frequency(), Some(MegaHertz(1410)));
        assert_eq!(all[9].frequency(), Some(MegaHertz(1005)));
    }

    #[test]
    fn cartesian_product_of_two_axes() {
        let mut p = ParamSpace::new();
        p.add("block_size", vec![128.0, 256.0]);
        p.add_frequencies(&[MegaHertz(1410), MegaHertz(1005)]);
        assert_eq!(p.size(), 4);
        let all = p.enumerate();
        assert_eq!(all.len(), 4);
        // Every combination appears exactly once.
        for bs in [128.0, 256.0] {
            for f in [1410.0, 1005.0] {
                assert_eq!(
                    all.iter()
                        .filter(|a| a.get("block_size") == Some(bs) && a.get(FREQ_KEY) == Some(f))
                        .count(),
                    1
                );
            }
        }
    }

    #[test]
    fn empty_space_has_one_empty_assignment() {
        let p = ParamSpace::new();
        let all = p.enumerate();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].frequency(), None);
    }

    #[test]
    fn display_formats_assignment() {
        let mut p = ParamSpace::new();
        p.add_frequencies(&[MegaHertz(1200)]);
        let a = &p.enumerate()[0];
        assert_eq!(a.to_string(), "{gpu_freq=1200}");
    }
}
