//! Dataset specifications mirroring Table 1 of the paper.

use std::fmt;

/// The twelve benchmark datasets of Table 1, by their paper abbreviations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::upper_case_acronyms)]
pub enum DatasetId {
    /// Abt-Buy (products, 3 attributes).
    AB,
    /// Amazon-Google (software products, 3 attributes).
    AG,
    /// BeerAdvo-RateBeer (beers, 4 attributes).
    BA,
    /// DBLP-ACM (bibliographic, 4 attributes).
    DA,
    /// DBLP-Scholar (bibliographic, 4 attributes).
    DS,
    /// Fodors-Zagats (restaurants, 6 attributes).
    FZ,
    /// iTunes-Amazon (music, 8 attributes).
    IA,
    /// Walmart-Amazon (products, 5 attributes).
    WA,
    /// Dirty DBLP-ACM.
    DDA,
    /// Dirty DBLP-Scholar.
    DDS,
    /// Dirty iTunes-Amazon.
    DIA,
    /// Dirty Walmart-Amazon.
    DWA,
}

impl DatasetId {
    /// All twelve datasets, in Table 1 order.
    pub fn all() -> [DatasetId; 12] {
        use DatasetId::*;
        [AB, AG, BA, DA, DS, FZ, IA, WA, DDA, DDS, DIA, DWA]
    }

    /// The paper's two-to-three-letter abbreviation.
    pub fn code(self) -> &'static str {
        use DatasetId::*;
        match self {
            AB => "AB",
            AG => "AG",
            BA => "BA",
            DA => "DA",
            DS => "DS",
            FZ => "FZ",
            IA => "IA",
            WA => "WA",
            DDA => "DDA",
            DDS => "DDS",
            DIA => "DIA",
            DWA => "DWA",
        }
    }

    /// Full specification for this dataset.
    pub fn spec(self) -> DatasetSpec {
        spec_for(self)
    }

    /// Resolve a Table 1 abbreviation (case-insensitive), e.g. `"FZ"` or
    /// `"dda"`. Name-based entry point for the serving registry and CLIs.
    pub fn from_code(code: &str) -> Result<DatasetId, String> {
        let upper = code.to_ascii_uppercase();
        DatasetId::all()
            .into_iter()
            .find(|id| id.code() == upper)
            .ok_or_else(|| {
                format!(
                    "unknown dataset `{code}` (expected one of {})",
                    DatasetId::all().map(|id| id.code()).join(", ")
                )
            })
    }
}

impl std::str::FromStr for DatasetId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DatasetId::from_code(s)
    }
}

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Entity domain, selecting the vocabulary and rendering rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Consumer electronics (Abt-Buy, Walmart-Amazon).
    Electronics,
    /// Software titles (Amazon-Google).
    Software,
    /// Beers (BeerAdvo-RateBeer).
    Beer,
    /// Bibliographic records (DBLP-ACM / DBLP-Scholar).
    Bibliographic,
    /// Restaurants (Fodors-Zagats).
    Restaurant,
    /// Music tracks (iTunes-Amazon).
    Music,
}

/// Experiment scale, trading fidelity to Table 1 sizes against runtime.
///
/// The experiment shapes (which method wins, where crossovers fall) are
/// stable from `Default` upward; `Smoke` exists for CI-speed sanity runs.
/// `Xl` grows *past* Table 1 toward the dataset-scale regime blocking
/// targets: tens of thousands of records per side, cross products in the
/// hundreds of millions of pairs — the workload `certa-block` and
/// `bench_block` exist for (explanation-grid experiments are not meant to
/// run here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny: tens of records per side; seconds-per-table experiments.
    Smoke,
    /// Medium: hundreds of records per side (a full reproduction run).
    Default,
    /// Approaches Table 1 sizes (large sources capped — see
    /// [`DatasetSpec::records_at`]).
    Paper,
    /// Past Table 1: the blocking/candidate-generation scale (3× the paper
    /// sizes, capped at 25 000 records per side).
    Xl,
}

impl Scale {
    fn factor(self) -> f64 {
        match self {
            Scale::Smoke => 0.02,
            Scale::Default => 0.12,
            Scale::Paper => 1.0,
            Scale::Xl => 3.0,
        }
    }

    fn cap(self) -> usize {
        match self {
            Scale::Smoke => 60,
            Scale::Default => 450,
            Scale::Paper => 6000,
            Scale::Xl => 25_000,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scale::Smoke => write!(f, "smoke"),
            Scale::Default => write!(f, "default"),
            Scale::Paper => write!(f, "paper"),
            Scale::Xl => write!(f, "xl"),
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Ok(Scale::Smoke),
            "default" => Ok(Scale::Default),
            "paper" => Ok(Scale::Paper),
            "xl" => Ok(Scale::Xl),
            other => Err(format!(
                "unknown scale `{other}` (expected smoke|default|paper|xl)"
            )),
        }
    }
}

/// Static description of one benchmark dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which dataset this is.
    pub id: DatasetId,
    /// Long name as in Table 1 (e.g. `"Abt-Buy"`).
    pub long_name: &'static str,
    /// Entity domain.
    pub domain: Domain,
    /// Left source name.
    pub left_name: &'static str,
    /// Right source name.
    pub right_name: &'static str,
    /// Attribute names (both sides share the aligned schema, as in the
    /// DeepMatcher benchmark).
    pub attrs: &'static [&'static str],
    /// Ground-truth matching pairs reported in Table 1.
    pub paper_matches: usize,
    /// Left-source record count from Table 1.
    pub paper_left: usize,
    /// Right-source record count from Table 1.
    pub paper_right: usize,
    /// Whether this is a Dirty variant (attribute-value migration noise).
    pub dirty: bool,
    /// Base RNG seed folded with the user seed, so different datasets draw
    /// different streams even under the same user seed.
    pub base_seed: u64,
}

impl DatasetSpec {
    /// Number of attributes (the "Attr.s" column of Table 1).
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Scaled `(left, right, matches)` counts for a given scale.
    ///
    /// Counts scale linearly with the paper sizes, clamped to
    /// `[24, scale cap]` per side so even FZ-sized sources stay usable, and
    /// matches are clamped to stay generatable (at least 8, at most
    /// 2 × min(left, right) — duplicate right-side views cover multiplicity).
    pub fn records_at(&self, scale: Scale) -> (usize, usize, usize) {
        let f = scale.factor();
        let cap = scale.cap();
        let scale_side = |n: usize| ((n as f64 * f).round() as usize).clamp(24, cap);
        let left = scale_side(self.paper_left);
        let right = scale_side(self.paper_right);
        let matches =
            (((self.paper_matches as f64) * f).round() as usize).clamp(8, 2 * left.min(right));
        (left, right, matches)
    }
}

fn spec_for(id: DatasetId) -> DatasetSpec {
    use DatasetId::*;
    match id {
        AB => DatasetSpec {
            id,
            long_name: "Abt-Buy",
            domain: Domain::Electronics,
            left_name: "Abt",
            right_name: "Buy",
            attrs: &["name", "description", "price"],
            paper_matches: 5743,
            paper_left: 1081,
            paper_right: 1092,
            dirty: false,
            base_seed: 0xAB01,
        },
        AG => DatasetSpec {
            id,
            long_name: "Amazon-Google",
            domain: Domain::Software,
            left_name: "Amazon",
            right_name: "Google",
            attrs: &["title", "manufacturer", "price"],
            paper_matches: 1167,
            paper_left: 1363,
            paper_right: 3226,
            dirty: false,
            base_seed: 0xA601,
        },
        BA => DatasetSpec {
            id,
            long_name: "beerAdvo-RateBeer",
            domain: Domain::Beer,
            left_name: "BeerAdvo",
            right_name: "RateBeer",
            attrs: &["beer_name", "brew_factory_name", "style", "abv"],
            paper_matches: 68,
            paper_left: 4345,
            paper_right: 3000,
            dirty: false,
            base_seed: 0xBA01,
        },
        DA => DatasetSpec {
            id,
            long_name: "DBLP-ACM",
            domain: Domain::Bibliographic,
            left_name: "DBLP",
            right_name: "ACM",
            attrs: &["title", "authors", "venue", "year"],
            paper_matches: 2220,
            paper_left: 2614,
            paper_right: 2292,
            dirty: false,
            base_seed: 0xDA01,
        },
        DS => DatasetSpec {
            id,
            long_name: "DBLP-Scholar",
            domain: Domain::Bibliographic,
            left_name: "DBLP",
            right_name: "Scholar",
            attrs: &["title", "authors", "venue", "year"],
            paper_matches: 5547,
            paper_left: 2614,
            paper_right: 64263,
            dirty: false,
            base_seed: 0xD501,
        },
        FZ => DatasetSpec {
            id,
            long_name: "Fodors-Zagats",
            domain: Domain::Restaurant,
            left_name: "Fodors",
            right_name: "Zagats",
            attrs: &["name", "addr", "city", "phone", "type", "class"],
            paper_matches: 110,
            paper_left: 533,
            paper_right: 331,
            dirty: false,
            base_seed: 0xF201,
        },
        IA => DatasetSpec {
            id,
            long_name: "iTunes-Amazon",
            domain: Domain::Music,
            left_name: "iTunes",
            right_name: "Amazon",
            attrs: &[
                "song_name",
                "artist_name",
                "album_name",
                "genre",
                "price",
                "copyright",
                "time",
                "released",
            ],
            paper_matches: 132,
            paper_left: 6907,
            paper_right: 55923,
            dirty: false,
            base_seed: 0x1A01,
        },
        WA => DatasetSpec {
            id,
            long_name: "Walmart-Amazon",
            domain: Domain::Electronics,
            left_name: "Walmart",
            right_name: "Amazon",
            attrs: &["title", "category", "brand", "modelno", "price"],
            paper_matches: 962,
            paper_left: 2554,
            paper_right: 22074,
            dirty: false,
            base_seed: 0x3A01,
        },
        DDA => DatasetSpec {
            dirty: true,
            long_name: "Dirty DBLP-ACM",
            paper_matches: 7418,
            base_seed: 0xDDA1,
            id,
            ..spec_for(DA)
        },
        DDS => DatasetSpec {
            dirty: true,
            long_name: "Dirty DBLP-Scholar",
            paper_matches: 17223,
            base_seed: 0xDD51,
            id,
            ..spec_for(DS)
        },
        DIA => DatasetSpec {
            dirty: true,
            long_name: "Dirty iTunes-Amazon",
            paper_matches: 321,
            base_seed: 0xD1A1,
            id,
            ..spec_for(IA)
        },
        DWA => DatasetSpec {
            dirty: true,
            long_name: "Dirty Walmart-Amazon",
            paper_matches: 6144,
            base_seed: 0xD3A1,
            id,
            ..spec_for(WA)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_ids_parse_from_codes() {
        for id in DatasetId::all() {
            assert_eq!(DatasetId::from_code(id.code()), Ok(id));
            assert_eq!(id.code().to_ascii_lowercase().parse(), Ok(id));
        }
        let err = DatasetId::from_code("XYZ").unwrap_err();
        assert!(err.contains("XYZ") && err.contains("FZ"), "{err}");
        assert!("".parse::<DatasetId>().is_err());
    }

    #[test]
    fn twelve_datasets_with_table1_arities() {
        let expected: &[(DatasetId, usize)] = &[
            (DatasetId::AB, 3),
            (DatasetId::AG, 3),
            (DatasetId::BA, 4),
            (DatasetId::DA, 4),
            (DatasetId::DS, 4),
            (DatasetId::FZ, 6),
            (DatasetId::IA, 8),
            (DatasetId::WA, 5),
            (DatasetId::DDA, 4),
            (DatasetId::DDS, 4),
            (DatasetId::DIA, 8),
            (DatasetId::DWA, 5),
        ];
        assert_eq!(DatasetId::all().len(), 12);
        for &(id, arity) in expected {
            assert_eq!(id.spec().arity(), arity, "{id}");
        }
    }

    #[test]
    fn dirty_variants_flagged_and_inherit_schema() {
        for (dirty, clean) in [
            (DatasetId::DDA, DatasetId::DA),
            (DatasetId::DDS, DatasetId::DS),
            (DatasetId::DIA, DatasetId::IA),
            (DatasetId::DWA, DatasetId::WA),
        ] {
            let d = dirty.spec();
            let c = clean.spec();
            assert!(d.dirty);
            assert!(!c.dirty);
            assert_eq!(d.attrs, c.attrs);
            assert_eq!(d.domain, c.domain);
        }
    }

    #[test]
    fn codes_match_display() {
        for id in DatasetId::all() {
            assert_eq!(id.to_string(), id.code());
        }
    }

    #[test]
    fn scaled_counts_monotone_in_scale() {
        for id in DatasetId::all() {
            let spec = id.spec();
            let (ls, rs, ms) = spec.records_at(Scale::Smoke);
            let (ld, rd, md) = spec.records_at(Scale::Default);
            let (lp, rp, mp) = spec.records_at(Scale::Paper);
            let (lx, rx, mx) = spec.records_at(Scale::Xl);
            assert!(ls <= ld && ld <= lp && lp <= lx, "{id} left counts");
            assert!(rs <= rd && rd <= rp && rp <= rx, "{id} right counts");
            assert!(ms <= md && md <= mp && mp <= mx, "{id} match counts");
            assert!(ms >= 8);
            assert!(ms <= 2 * ls.min(rs), "{id} matches generatable");
        }
    }

    #[test]
    fn xl_scale_reaches_the_blocking_regime() {
        // The blocking bench needs a cross product ≥ 10^8 candidate pairs
        // somewhere in the suite; DBLP-Scholar at Xl provides it.
        let (l, r, m) = DatasetId::DS.spec().records_at(Scale::Xl);
        assert_eq!(l, 7842);
        assert_eq!(r, 25_000, "Scholar side capped at the Xl ceiling");
        assert!(l * r >= 100_000_000, "cross product {}", l * r);
        assert!(m >= 8 && m <= 2 * l.min(r));
        assert_eq!("xl".parse::<Scale>().unwrap(), Scale::Xl);
        assert_eq!(Scale::Xl.to_string(), "xl");
    }

    #[test]
    fn paper_scale_respects_caps() {
        let (l, r, _) = DatasetId::DS.spec().records_at(Scale::Paper);
        assert_eq!(l, 2614);
        assert_eq!(r, 6000, "64263-record Scholar side capped");
    }

    #[test]
    fn base_seeds_are_distinct() {
        let mut seeds: Vec<u64> = DatasetId::all()
            .iter()
            .map(|id| id.spec().base_seed)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);
    }

    #[test]
    fn scale_parses_from_str() {
        assert_eq!("smoke".parse::<Scale>().unwrap(), Scale::Smoke);
        assert_eq!("Default".parse::<Scale>().unwrap(), Scale::Default);
        assert_eq!("PAPER".parse::<Scale>().unwrap(), Scale::Paper);
        assert!("huge".parse::<Scale>().is_err());
    }
}
