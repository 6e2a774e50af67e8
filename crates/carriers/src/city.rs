//! The shared [`City`] vocabulary.
//!
//! The crawl's cities form a fixed universe: the five anonymized US cities
//! of the paper's city-level analysis (Fig 20) plus one region per other
//! country. Cities used to travel through the workspace as `&'static str`
//! labels re-interned by ad-hoc `match` blocks in `mmlab`; this enum is the
//! single typed vocabulary, and its [`as_str`](City::as_str) codes are the
//! exact strings the store's string dictionary carries.

use std::fmt;
use std::str::FromStr;

macro_rules! cities {
    ($($variant:ident => $code:literal),+ $(,)?) => {
        /// A city (or, for non-US carriers, country-level region) code.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum City {
            $(#[doc = concat!("`", $code, "`")] $variant,)+
            /// A label outside the crawl's fixed universe.
            Unknown,
        }

        impl City {
            /// Every known city, US drive cities first, in code order.
            pub const ALL: [City; cities!(@count $($variant)+)] = [$(City::$variant,)+];

            /// The wire/city code (`"C1"`, `"CN"`, …; `"??"` for unknown).
            pub const fn as_str(self) -> &'static str {
                match self {
                    $(City::$variant => $code,)+
                    City::Unknown => "??",
                }
            }

            /// Parse a code, mapping anything unrecognized to
            /// [`City::Unknown`] (the crawler's historical behaviour).
            pub fn intern(code: &str) -> City {
                match code {
                    $($code => City::$variant,)+
                    _ => City::Unknown,
                }
            }
        }
    };
    (@count $($x:ident)+) => { 0 $(+ { let _ = stringify!($x); 1 })+ };
}

cities! {
    C1 => "C1",
    C2 => "C2",
    C3 => "C3",
    C4 => "C4",
    C5 => "C5",
    Us => "US",
    Cn => "CN",
    Kr => "KR",
    Sg => "SG",
    Hk => "HK",
    Tw => "TW",
    No => "NO",
    Fr => "FR",
    De => "DE",
    Es => "ES",
    Mx => "MX",
    It => "IT",
    Gb => "GB",
    Se => "SE",
    Ca => "CA",
    At => "AT",
}

impl City {
    /// Whether this is one of the five anonymized US cities.
    pub const fn is_us(self) -> bool {
        matches!(self, City::C1 | City::C2 | City::C3 | City::C4 | City::C5)
    }
}

impl fmt::Display for City {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error for strict [`City`] parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCity(pub String);

impl fmt::Display for UnknownCity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown city code {:?}", self.0)
    }
}

impl std::error::Error for UnknownCity {}

impl FromStr for City {
    type Err = UnknownCity;

    fn from_str(s: &str) -> Result<City, UnknownCity> {
        match City::intern(s) {
            City::Unknown => Err(UnknownCity(s.to_string())),
            c => Ok(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for city in City::ALL {
            assert_eq!(City::intern(city.as_str()), city);
            assert_eq!(city.as_str().parse::<City>(), Ok(city));
            assert_eq!(city.to_string(), city.as_str());
        }
    }

    #[test]
    fn unknown_labels_map_to_unknown() {
        assert_eq!(City::intern("XX"), City::Unknown);
        assert_eq!(City::Unknown.as_str(), "??");
        assert!("XX".parse::<City>().is_err());
    }

    #[test]
    fn us_cities_are_the_five_anonymized_ones() {
        let us: Vec<City> = City::ALL.iter().copied().filter(|c| c.is_us()).collect();
        assert_eq!(us, [City::C1, City::C2, City::C3, City::C4, City::C5]);
        assert!(!City::Cn.is_us());
    }

    #[test]
    fn ordering_puts_drive_cities_first() {
        assert!(City::C1 < City::C3 && City::C3 < City::C5 && City::C5 < City::Us);
    }
}
