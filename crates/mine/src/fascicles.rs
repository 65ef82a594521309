//! The thesis's Fascicles miner, wrapped as mining backend #1. The
//! algorithm itself stays in `gea-core`/`gea-cluster`; this adapter only
//! maps the schema (`k_pct`/`min_records`/`batch`) onto [`FascicleParams`]
//! through [`fascicle_params`] — the mapping `gea-exec`'s scatter seam
//! uses too — and the tolerance metadata uses the fixed 10 % width
//! fraction. The positional `mine <d> <o> <k%> <min> <batch>` parses to
//! `with fascicles k_pct=… min_records=… batch=…`, so every spelling
//! mines through the same mapping.

use gea_cluster::FascicleParams;
/// Width fraction the engine has always used for `mine`'s tolerance
/// metadata (thesis §4.3).
pub use gea_core::mine::WIDTH_FRACTION;
use gea_core::mine::{generate_metadata, mine, MinedCluster, Miner};

use crate::{MineBackend, MineInput, ParamDomain, ParamSpec, ParamValue, ResolvedParams};

/// The one place a `mine`'s resolved `k_pct`/`min_records`/`batch`
/// become the miner's parameters: the compact floor is
/// `n_tags × k_pct / 100`.
pub fn fascicle_params(n_tags: usize, params: &ResolvedParams) -> FascicleParams {
    FascicleParams {
        min_compact_attrs: n_tags * params.uint("k_pct") as usize / 100,
        min_records: params.uint("min_records") as usize,
        batch_size: params.uint("batch") as usize,
    }
}

/// Backend #1: the thesis's Fascicles algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct FasciclesBackend;

/// Parameter schema shared with the GQL grammar (the positional
/// `<k%> <min> <batch>` of `mine` map onto these keys).
pub const FASCICLES_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "k_pct",
        domain: ParamDomain::UInt { min: 1, max: 100 },
        default: ParamValue::UInt(50),
        help: "compact-attribute floor as a percentage of the tag count",
    },
    ParamSpec {
        key: "min_records",
        domain: ParamDomain::UInt {
            min: 1,
            max: 1 << 20,
        },
        default: ParamValue::UInt(3),
        help: "minimum member libraries per fascicle",
    },
    ParamSpec {
        key: "batch",
        domain: ParamDomain::UInt {
            min: 1,
            max: 1 << 20,
        },
        default: ParamValue::UInt(6),
        help: "candidate batch size for the greedy search",
    },
];

impl MineBackend for FasciclesBackend {
    fn name(&self) -> &'static str {
        "fascicles"
    }

    fn params(&self) -> &'static [ParamSpec] {
        FASCICLES_PARAMS
    }

    fn mine(&self, input: &MineInput<'_>) -> Vec<MinedCluster> {
        let miner = Miner::Fascicles(fascicle_params(input.table.n_tags(), input.params));
        let tolerance = generate_metadata(input.table, WIDTH_FRACTION);
        mine(input.table, input.base_name, &miner, Some(&tolerance))
    }
}
