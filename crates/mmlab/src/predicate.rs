//! The shared dataset predicate — one filter vocabulary for queries,
//! figures, store scans and diversity slices.
//!
//! A [`Predicate`] is a conjunction of optional per-field constraints
//! (carrier, city, parameter name, RAT, round ceiling). Every consumer —
//! `D2::filter`/`D1::filter`, the store readers' block-skipping pushdown, and the `mmq` query planner — shares
//! this one type, so "carrier A in city C3" means exactly the same rows
//! everywhere. The builder is chainable, mirroring `Ctx::builder()`:
//!
//! ```
//! use mmlab::predicate::Predicate;
//! use mmcarriers::city::City;
//! let pred = Predicate::any().carrier("A").city(City::C3);
//! assert!(!pred.is_any());
//! ```

use crate::store::RowSchema;
use mmcarriers::city::City;
use mmradio::band::Rat;

/// Stable lowercase key for a RAT, used in normalized predicate strings
/// and CLI flags (`Rat::name()` is a display string with spaces).
pub fn rat_key(rat: Rat) -> &'static str {
    match rat {
        Rat::Lte => "lte",
        Rat::Umts => "umts",
        Rat::Gsm => "gsm",
        Rat::Evdo => "evdo",
        Rat::Cdma1x => "cdma1x",
    }
}

/// Parse a RAT from its stable key (case-insensitive). Inverse of
/// [`rat_key`].
pub fn rat_from_key(s: &str) -> Option<Rat> {
    Rat::ALL
        .into_iter()
        .find(|&r| rat_key(r).eq_ignore_ascii_case(s))
}

/// A conjunction of optional row constraints over dataset fields.
///
/// Unset fields admit everything; [`Predicate::any`] is the neutral
/// predicate that matches every row. Field names double as chainable
/// setters (the builder style of `Ctx::builder()`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Predicate {
    /// Carrier code the row must carry (`"A"`, `"T"`, …).
    pub carrier: Option<String>,
    /// City the row must have been observed in.
    pub city: Option<City>,
    /// Parameter name the row must describe (D2 only; D1 rows have no
    /// parameter and ignore this constraint).
    pub param: Option<String>,
    /// RAT the row's cell must use (D2 only).
    pub rat: Option<Rat>,
    /// Inclusive round ceiling. On raw `D2` rows this bounds the sample's
    /// crawl round; the `mmq` planner instead applies it to whole campaign
    /// rounds (file-level pruning) and strips it from the row predicate
    /// via [`Predicate::without_rounds`].
    pub round_max: Option<u32>,
}

impl Predicate {
    /// The neutral predicate: no constraints, admits every row.
    pub fn any() -> Predicate {
        Predicate::default()
    }

    /// Require this carrier code.
    pub fn carrier(mut self, code: impl Into<String>) -> Predicate {
        self.carrier = Some(code.into());
        self
    }

    /// Require this city.
    pub fn city(mut self, city: City) -> Predicate {
        self.city = Some(city);
        self
    }

    /// Require this parameter name (D2 only).
    pub fn param(mut self, name: impl Into<String>) -> Predicate {
        self.param = Some(name.into());
        self
    }

    /// Require this RAT (D2 only).
    pub fn rat(mut self, rat: Rat) -> Predicate {
        self.rat = Some(rat);
        self
    }

    /// Require `round <= n`.
    pub fn round_max(mut self, n: u32) -> Predicate {
        self.round_max = Some(n);
        self
    }

    /// Whether this predicate admits every row (no constraints set).
    pub fn is_any(&self) -> bool {
        *self == Predicate::default()
    }

    /// This predicate with the round ceiling removed — what the query
    /// planner pushes into the store readers after it has already pruned
    /// whole rounds at the manifest level.
    pub fn without_rounds(&self) -> Predicate {
        Predicate {
            round_max: None,
            ..self.clone()
        }
    }

    /// Whether a D2 or D1 row satisfies every set constraint its schema
    /// has a field for. D1 instances have no parameter/RAT/round fields,
    /// so only the carrier and city constraints apply to them.
    pub fn matches<T: RowSchema>(&self, row: &T) -> bool {
        T::matches(self, row)
    }

    /// Canonical textual form, stable across runs — the query cache keys
    /// on it, so two predicates with the same meaning must produce the
    /// same string.
    pub fn normalized(&self) -> String {
        let or_star = |v: Option<&str>| v.unwrap_or("*").to_string();
        format!(
            "carrier={};city={};param={};rat={};round<={}",
            or_star(self.carrier.as_deref()),
            or_star(self.city.map(City::as_str)),
            or_star(self.param.as_deref()),
            or_star(self.rat.map(rat_key)),
            self.round_max
                .map_or_else(|| "*".to_string(), |n| n.to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ConfigSample;
    use mmradio::band::ChannelNumber;
    use mmradio::cell::CellId;
    use mmradio::geom::Point;

    fn sample() -> ConfigSample {
        ConfigSample {
            cell: CellId(7),
            carrier: "A",
            city: City::C3,
            rat: Rat::Lte,
            channel: ChannelNumber::earfcn(850),
            pos: Point::new(0.0, 0.0),
            round: 4,
            param: "q-Hyst",
            value: 4.0,
        }
    }

    #[test]
    fn any_admits_everything() {
        assert!(Predicate::any().is_any());
        assert!(Predicate::any().matches(&sample()));
    }

    #[test]
    fn each_constraint_filters_independently() {
        let s = sample();
        assert!(Predicate::any().carrier("A").matches(&s));
        assert!(!Predicate::any().carrier("T").matches(&s));
        assert!(Predicate::any().city(City::C3).matches(&s));
        assert!(!Predicate::any().city(City::C1).matches(&s));
        assert!(Predicate::any().param("q-Hyst").matches(&s));
        assert!(!Predicate::any().param("a3-Offset").matches(&s));
        assert!(Predicate::any().rat(Rat::Lte).matches(&s));
        assert!(!Predicate::any().rat(Rat::Gsm).matches(&s));
        assert!(Predicate::any().round_max(4).matches(&s));
        assert!(!Predicate::any().round_max(3).matches(&s));
    }

    #[test]
    fn conjunction_requires_all_constraints() {
        let pred = Predicate::any().carrier("A").city(City::C3).round_max(10);
        assert!(pred.matches(&sample()));
        let mut other = sample();
        other.city = City::C1;
        assert!(!pred.matches(&other));
    }

    #[test]
    fn without_rounds_strips_only_the_ceiling() {
        let pred = Predicate::any().carrier("A").round_max(0);
        let stripped = pred.without_rounds();
        assert_eq!(stripped.carrier.as_deref(), Some("A"));
        assert_eq!(stripped.round_max, None);
        let mut late = sample();
        late.round = 19;
        assert!(!pred.matches(&late));
        assert!(stripped.matches(&late));
    }

    #[test]
    fn normalized_is_stable_and_distinct() {
        assert_eq!(
            Predicate::any().normalized(),
            "carrier=*;city=*;param=*;rat=*;round<=*"
        );
        let pred = Predicate::any().carrier("A").rat(Rat::Umts).round_max(2);
        assert_eq!(
            pred.normalized(),
            "carrier=A;city=*;param=*;rat=umts;round<=2"
        );
        assert_ne!(pred.normalized(), pred.without_rounds().normalized());
    }

    #[test]
    fn rat_keys_round_trip() {
        for r in Rat::ALL {
            assert_eq!(rat_from_key(rat_key(r)), Some(r));
        }
        assert_eq!(rat_from_key("LTE"), Some(Rat::Lte));
        assert_eq!(rat_from_key("5g"), None);
    }
}
