//! Problem-size scales.
//!
//! `Paper` reproduces Table II verbatim. `Bench` shrinks every working set
//! by roughly the same 16× factor as the scaled machine's LLC/directory
//! (`MachineConfig::scaled`), preserving the working-set-to-capacity ratios
//! that drive Figures 6–10. `Test` is tiny, for unit tests.

/// Problem-size selector for every workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs for fast unit tests.
    Test,
    /// Default: proportionally scaled to the scaled machine (DESIGN.md §2).
    Bench,
    /// Table II sizes (pair with `MachineConfig::paper`).
    Paper,
}

impl Scale {
    /// Parse a [`Display`](core::fmt::Display) label (`test`, `bench`,
    /// `paper`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "test" => Some(Scale::Test),
            "bench" => Some(Scale::Bench),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Pick one of three values by scale.
    pub fn pick<T: Copy>(self, test: T, bench: T, paper: T) -> T {
        match self {
            Scale::Test => test,
            Scale::Bench => bench,
            Scale::Paper => paper,
        }
    }
}

impl core::fmt::Display for Scale {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Scale::Test => "test",
            Scale::Bench => "bench",
            Scale::Paper => "paper",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Test.pick(1, 2, 3), 1);
        assert_eq!(Scale::Bench.pick(1, 2, 3), 2);
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Scale::Bench.to_string(), "bench");
        for s in [Scale::Test, Scale::Bench, Scale::Paper] {
            assert_eq!(Scale::parse(&s.to_string()), Some(s));
        }
        assert_eq!(Scale::parse("Bench"), None);
    }
}
