//! Typed parameter schemas for mining backends.
//!
//! Every backend publishes a static `&[ParamSpec]` — key, typed domain,
//! default, and a help line. The GQL grammar parses every spelling of
//! `mine` against the schema and resolves it with [`resolve_params`], so
//! a mistyped *or* out-of-domain value (`seeds=oops`, `seeds=0`) is a
//! *parse* error and a parsed command carries the backend's whole
//! resolved parameter list. Values are deliberately restricted to
//! unsigned integers and finite floats: both have canonical textual
//! forms, which keeps `GqlCommand::canonical()` a fixpoint and cache
//! keys stable.

use std::fmt;

/// A parameter value: either an unsigned integer or a finite float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// Unsigned integer (counts: seeds, k, iteration caps, …).
    UInt(u64),
    /// Finite float (thresholds, smoothing constants, …).
    Float(f64),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::UInt(v) => write!(f, "{v}"),
            // Rust's f64 Display is the shortest round-tripping decimal,
            // so canonical() stays a fixpoint: "1.5" -> 1.5 -> "1.5".
            ParamValue::Float(v) => write!(f, "{v}"),
        }
    }
}

/// The typed domain a parameter's value must fall in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamDomain {
    /// An unsigned integer in `min..=max`.
    UInt {
        /// Smallest admissible value.
        min: u64,
        /// Largest admissible value.
        max: u64,
    },
    /// A finite float in `(min_exclusive, max]`.
    Float {
        /// Exclusive lower bound (e.g. `0.0` for "strictly positive").
        min_exclusive: f64,
        /// Inclusive upper bound.
        max: f64,
    },
}

impl ParamDomain {
    /// Whether `value` is of the domain's type *and* inside its bounds.
    pub fn contains(&self, value: &ParamValue) -> bool {
        match (self, value) {
            (ParamDomain::UInt { min, max }, ParamValue::UInt(v)) => min <= v && v <= max,
            (ParamDomain::Float { min_exclusive, max }, ParamValue::Float(v)) => {
                v.is_finite() && *v > *min_exclusive && *v <= *max
            }
            _ => false,
        }
    }

    /// Human-readable bounds, for diagnostics and `help`.
    pub fn describe(&self) -> String {
        match self {
            ParamDomain::UInt { min, max } => format!("integer {min}..={max}"),
            ParamDomain::Float { min_exclusive, max } => {
                format!("float > {min_exclusive}, <= {max}")
            }
        }
    }

    /// `Ok` if the domain contains `value`, else the one message an
    /// out-of-domain `key` gets, whichever command and spelling carried it.
    pub fn admit(&self, key: &str, value: ParamValue) -> Result<(), String> {
        if self.contains(&value) {
            Ok(())
        } else {
            Err(format!(
                "parameter {key} = {value} out of domain ({})",
                self.describe()
            ))
        }
    }

    /// Parse a `key=val` right-hand side against the domain's *type*; the
    /// range is [`ParamDomain::admit`]'s.
    pub fn parse_token(&self, token: &str) -> Result<ParamValue, String> {
        match self {
            ParamDomain::UInt { .. } => token
                .parse::<u64>()
                .map(ParamValue::UInt)
                .map_err(|_| format!("expected an unsigned integer, got {token:?}")),
            ParamDomain::Float { .. } => match token.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(ParamValue::Float(v)),
                _ => Err(format!("expected a finite number, got {token:?}")),
            },
        }
    }
}

/// One backend parameter: key, domain, default, help line.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// The `key` in `key=val`.
    pub key: &'static str,
    /// Typed domain the value must fall in.
    pub domain: ParamDomain,
    /// Value used when the script does not override the key.
    pub default: ParamValue,
    /// One-line description for `help` output and docs.
    pub help: &'static str,
}

/// A fully resolved parameter set: every key of the backend's schema bound
/// to a domain-checked value, in schema order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedParams {
    values: Vec<(&'static str, ParamValue)>,
}

impl ResolvedParams {
    /// The bound `(key, value)` pairs, in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, ParamValue)> + '_ {
        self.values.iter().copied()
    }

    /// Fetch an integer parameter. Panics if the key is absent or float —
    /// both are schema bugs, impossible for values built by
    /// [`resolve_params`] against the same backend.
    pub fn uint(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(ParamValue::UInt(v)) => v,
            other => panic!("parameter {key:?} is not a resolved integer: {other:?}"),
        }
    }

    /// Fetch a float parameter. Panics on absent/integer keys (schema bug).
    pub fn float(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(ParamValue::Float(v)) => v,
            other => panic!("parameter {key:?} is not a resolved float: {other:?}"),
        }
    }

    fn get(&self, key: &str) -> Option<ParamValue> {
        self.values.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Render as owned `(key, value-text)` pairs — the shape session
    /// lineage and snapshot provenance store.
    pub fn to_strings(&self) -> Vec<(String, String)> {
        self.values
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }
}

/// Resolve explicit `key=val` overrides against a backend schema: unknown
/// keys, duplicate keys, type mismatches, and out-of-domain values are
/// errors; unmentioned keys take their defaults.
pub fn resolve_params(
    specs: &[ParamSpec],
    given: &[(String, ParamValue)],
) -> Result<ResolvedParams, String> {
    for (i, (key, value)) in given.iter().enumerate() {
        let Some(spec) = specs.iter().find(|s| s.key == key.as_str()) else {
            let known: Vec<&str> = specs.iter().map(|s| s.key).collect();
            return Err(format!(
                "unknown parameter {key:?} (expected one of: {})",
                known.join(", ")
            ));
        };
        if given[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate parameter {key:?}"));
        }
        spec.domain.admit(key, *value)?;
    }
    let values = specs
        .iter()
        .map(|spec| {
            let explicit = given.iter().find(|(k, _)| k == spec.key).map(|(_, v)| *v);
            (spec.key, explicit.unwrap_or(spec.default))
        })
        .collect();
    Ok(ResolvedParams { values })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPECS: &[ParamSpec] = &[
        ParamSpec {
            key: "k",
            domain: ParamDomain::UInt { min: 1, max: 16 },
            default: ParamValue::UInt(3),
            help: "clusters",
        },
        ParamSpec {
            key: "alpha",
            domain: ParamDomain::Float {
                min_exclusive: 0.0,
                max: 100.0,
            },
            default: ParamValue::Float(0.5),
            help: "smoothing",
        },
    ];

    #[test]
    fn defaults_fill_unmentioned_keys() {
        let r = resolve_params(SPECS, &[]).unwrap();
        assert_eq!(r.uint("k"), 3);
        assert_eq!(r.float("alpha"), 0.5);
    }

    #[test]
    fn overrides_are_domain_checked() {
        let r = resolve_params(SPECS, &[("k".into(), ParamValue::UInt(5))]).unwrap();
        assert_eq!(r.uint("k"), 5);
        let err = resolve_params(SPECS, &[("k".into(), ParamValue::UInt(0))]).unwrap_err();
        assert!(err.contains("out of domain"), "{err}");
        let err = resolve_params(SPECS, &[("alpha".into(), ParamValue::Float(0.0))]).unwrap_err();
        assert!(err.contains("out of domain"), "{err}");
    }

    #[test]
    fn unknown_duplicate_and_mistyped_keys_are_rejected() {
        let err = resolve_params(SPECS, &[("q".into(), ParamValue::UInt(1))]).unwrap_err();
        assert!(err.contains("unknown parameter"), "{err}");
        let err = resolve_params(
            SPECS,
            &[
                ("k".into(), ParamValue::UInt(2)),
                ("k".into(), ParamValue::UInt(3)),
            ],
        )
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = resolve_params(SPECS, &[("k".into(), ParamValue::Float(2.0))]).unwrap_err();
        assert!(err.contains("out of domain"), "{err}");
    }

    #[test]
    fn value_display_round_trips_through_parse() {
        for v in [
            ParamValue::Float(1.5),
            ParamValue::Float(2.0),
            ParamValue::Float(0.0625),
            ParamValue::UInt(8),
        ] {
            let domain = match v {
                ParamValue::UInt(_) => ParamDomain::UInt {
                    min: 0,
                    max: u64::MAX,
                },
                ParamValue::Float(_) => ParamDomain::Float {
                    min_exclusive: -1.0,
                    max: 1e9,
                },
            };
            assert_eq!(domain.parse_token(&v.to_string()).unwrap(), v);
        }
    }
}
