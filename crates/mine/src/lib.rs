//! # gea-mine — pluggable mining backends
//!
//! The thesis frames `mine` as the bridge from the extensional world
//! (ENUM tables of libraries) to the intensional one (fascicles with
//! their SUMY definitions), but the original toolkit hard-codes a single
//! algorithm. This crate turns the bridge into a subsystem: a
//! [`MineBackend`] trait with a typed parameter schema, a static
//! [registry](backends), and three backends —
//!
//! * [`FasciclesBackend`] (`fascicles`) — the thesis algorithm, adapted
//!   unchanged from `gea-core`;
//! * [`IsaBackend`] (`isa`) — the Iterative Signature Algorithm:
//!   seeded, thresholded tag/library signature refinement ([`isa`]);
//! * [`SimplexBackend`] (`simplex`) — Simcluster-style k-medoids under
//!   the Aitchison (log-ratio) geometry of count compositions
//!   ([`simplex`]).
//!
//! GQL reaches the registry through `mine <E> <name> with <algo>
//! [key=val …]`, whose grammar resolves every parameter against the
//! backend's schema and refuses out-of-domain values; and `gea-exec`
//! ships sharded drivers for both new backends that are byte-identical
//! to the serial `MineBackend::mine` paths here.
//!
//! ## Determinism rules
//!
//! Backends must be deterministic functions of `(table, base_name,
//! params)` — no RNG, no iteration over unordered maps, all tie-breaks
//! resolved toward the lowest index. This is what lets `gea-exec` fan a
//! backend out across shards and threads and still promise byte-identical
//! output, and what makes backend provenance in `session.gea` snapshots
//! meaningful on restore.

#![warn(missing_docs)]

pub mod isa;
pub mod simplex;

mod fascicles;
mod params;

pub use fascicles::{fascicle_params, FasciclesBackend, FASCICLES_PARAMS, WIDTH_FRACTION};
pub use params::{resolve_params, ParamDomain, ParamSpec, ParamValue, ResolvedParams};

use gea_core::mine::{materialize_groups, MinedCluster};
use gea_core::EnumTable;

/// Everything a backend sees: the table to mine, the base name for
/// cluster naming (`{base}_1`, `{base}_2`, …), and a parameter set
/// resolved against the backend's own schema.
#[derive(Debug, Clone, Copy)]
pub struct MineInput<'a> {
    /// The ENUM table being mined.
    pub table: &'a EnumTable,
    /// Base name for the resulting clusters.
    pub base_name: &'a str,
    /// Parameters, resolved by [`resolve_params`] against the backend.
    pub params: &'a ResolvedParams,
}

/// A mining algorithm: name, typed parameter schema, and the miner
/// itself. Implementations must follow the crate-level determinism rules.
pub trait MineBackend: Sync {
    /// Registry name, as written after `with` in GQL.
    fn name(&self) -> &'static str;

    /// The parameter schema (keys, domains, defaults).
    fn params(&self) -> &'static [ParamSpec];

    /// Mine `input.table` into named clusters.
    fn mine(&self, input: &MineInput<'_>) -> Vec<MinedCluster>;
}

/// Backend: the Iterative Signature Algorithm (see [`isa`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct IsaBackend;

/// ISA's parameter schema.
pub const ISA_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "seeds",
        domain: ParamDomain::UInt { min: 1, max: 4096 },
        default: ParamValue::UInt(8),
        help: "number of strided seed tag sets to iterate",
    },
    ParamSpec {
        key: "t_tags",
        domain: ParamDomain::Float {
            min_exclusive: 0.0,
            max: 1e6,
        },
        default: ParamValue::Float(2.0),
        help: "tag-score threshold, in standard deviations",
    },
    ParamSpec {
        key: "t_libs",
        domain: ParamDomain::Float {
            min_exclusive: 0.0,
            max: 1e6,
        },
        default: ParamValue::Float(1.5),
        help: "library-score threshold, in standard deviations",
    },
    ParamSpec {
        key: "max_iters",
        domain: ParamDomain::UInt {
            min: 1,
            max: 10_000,
        },
        default: ParamValue::UInt(50),
        help: "iteration cap per seed",
    },
];

impl MineBackend for IsaBackend {
    fn name(&self) -> &'static str {
        "isa"
    }

    fn params(&self) -> &'static [ParamSpec] {
        ISA_PARAMS
    }

    fn mine(&self, input: &MineInput<'_>) -> Vec<MinedCluster> {
        let params = isa::IsaParams::from_resolved(input.params);
        materialize_groups(
            input.table,
            input.base_name,
            0,
            isa::mine_groups(input.table, &params),
        )
    }
}

/// Backend: Aitchison-distance k-medoids (see [`simplex`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplexBackend;

/// Simplex clustering's parameter schema.
pub const SIMPLEX_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "k",
        domain: ParamDomain::UInt { min: 1, max: 4096 },
        default: ParamValue::UInt(3),
        help: "number of medoids (clamped to the library count)",
    },
    ParamSpec {
        key: "max_iters",
        domain: ParamDomain::UInt {
            min: 1,
            max: 10_000,
        },
        default: ParamValue::UInt(20),
        help: "cap on medoid-update rounds",
    },
    ParamSpec {
        key: "zero_repl",
        domain: ParamDomain::Float {
            min_exclusive: 0.0,
            max: 1e6,
        },
        default: ParamValue::Float(0.5),
        help: "additive zero replacement before the log-ratio transform",
    },
];

impl MineBackend for SimplexBackend {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn params(&self) -> &'static [ParamSpec] {
        SIMPLEX_PARAMS
    }

    fn mine(&self, input: &MineInput<'_>) -> Vec<MinedCluster> {
        let params = simplex::SimplexParams::from_resolved(input.params);
        materialize_groups(
            input.table,
            input.base_name,
            0,
            simplex::mine_groups(input.table, &params),
        )
    }
}

/// The static backend registry, in registration order.
pub fn backends() -> &'static [&'static dyn MineBackend] {
    static FASCICLES: FasciclesBackend = FasciclesBackend;
    static ISA: IsaBackend = IsaBackend;
    static SIMPLEX: SimplexBackend = SimplexBackend;
    static ALL: [&dyn MineBackend; 3] = [&FASCICLES, &ISA, &SIMPLEX];
    &ALL
}

/// Look a backend up by its registry name.
pub fn backend(name: &str) -> Option<&'static dyn MineBackend> {
    backends().iter().copied().find(|b| b.name() == name)
}

/// Comma-separated registry names, for error messages and help text.
pub fn backend_names() -> String {
    backends()
        .iter()
        .map(|b| b.name())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_all_three_backends() {
        assert_eq!(backend_names(), "fascicles, isa, simplex");
        for name in ["fascicles", "isa", "simplex"] {
            let b = backend(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(b.name(), name);
            assert!(!b.params().is_empty());
        }
        assert!(backend("pca").is_none());
    }

    #[test]
    fn every_schema_default_is_inside_its_domain() {
        for b in backends() {
            for spec in b.params() {
                assert!(
                    spec.domain.contains(&spec.default),
                    "{}::{} default {} outside {}",
                    b.name(),
                    spec.key,
                    spec.default,
                    spec.domain.describe()
                );
            }
        }
    }

    #[test]
    fn schema_keys_are_unique_per_backend() {
        for b in backends() {
            let mut keys: Vec<&str> = b.params().iter().map(|s| s.key).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(
                keys.len(),
                b.params().len(),
                "{} has duplicate keys",
                b.name()
            );
        }
    }
}
