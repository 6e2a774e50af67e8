//! Radio access technologies, frequency bands, and channel-number mappings.
//!
//! The paper keys much of its analysis on the *channel number* a cell
//! operates on (EARFCN for LTE — e.g. AT&T's band-30 channel 9820 which
//! received the highest reselection priority, §5.4.1). This module implements
//! the TS 36.101 §5.7.3 downlink mapping `F_DL = F_DL_low + 0.1·(N_DL −
//! N_Offs-DL)` for every band observed in the paper plus the common US/EU/
//! Asia bands, and coarse UARFCN/ARFCN handling for 3G/2G.

/// Radio access technology generations covered by the study (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rat {
    /// 4G LTE (E-UTRA).
    Lte,
    /// 3G UMTS / WCDMA.
    Umts,
    /// 2G GSM / GERAN.
    Gsm,
    /// 3G CDMA2000 EV-DO (HRPD).
    Evdo,
    /// 2G/3G CDMA2000 1x.
    Cdma1x,
}

impl Rat {
    /// All RATs in the order Table 4 lists them.
    pub const ALL: [Rat; 5] = [Rat::Lte, Rat::Umts, Rat::Gsm, Rat::Evdo, Rat::Cdma1x];

    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Rat::Lte => "4G LTE",
            Rat::Umts => "3G UMTS",
            Rat::Gsm => "GSM",
            Rat::Evdo => "3G EVDO",
            Rat::Cdma1x => "CDMA1x",
        }
    }

    /// Whether two RATs belong to the same 3GPP family (UMTS/GSM vs
    /// CDMA2000); handoffs across families are rare in practice.
    pub fn same_family(self, other: Rat) -> bool {
        let family = |r: Rat| matches!(r, Rat::Evdo | Rat::Cdma1x);
        family(self) == family(other) || self == Rat::Lte || other == Rat::Lte
    }
}

impl core::fmt::Display for Rat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A RAT-qualified channel number (EARFCN / UARFCN / ARFCN / CDMA channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelNumber {
    /// The technology this channel number is defined for.
    pub rat: Rat,
    /// The raw channel number (downlink).
    pub number: u32,
}

impl ChannelNumber {
    /// An LTE EARFCN.
    pub fn earfcn(number: u32) -> Self {
        ChannelNumber {
            rat: Rat::Lte,
            number,
        }
    }

    /// A UMTS UARFCN.
    pub fn uarfcn(number: u32) -> Self {
        ChannelNumber {
            rat: Rat::Umts,
            number,
        }
    }

    /// A GSM ARFCN.
    pub fn arfcn(number: u32) -> Self {
        ChannelNumber {
            rat: Rat::Gsm,
            number,
        }
    }

    /// Downlink center frequency in MHz, when the channel falls in a known
    /// band.
    pub fn frequency_mhz(self) -> Option<f64> {
        match self.rat {
            Rat::Lte => FrequencyBand::for_earfcn(self.number)
                .map(|b| b.f_dl_low_mhz + 0.1 * f64::from(self.number - b.n_offs_dl)),
            // UARFCN: F_DL = N/5 MHz for the general case (TS 25.101).
            Rat::Umts => Some(f64::from(self.number) / 5.0),
            // GSM 900 / DCS 1800 coarse mapping (TS 45.005).
            Rat::Gsm => Some(match self.number {
                0..=124 => 935.0 + 0.2 * f64::from(self.number),
                512..=885 => 1805.2 + 0.2 * f64::from(self.number - 512),
                n => 869.0 + 0.03 * f64::from(n % 1000),
            }),
            // CDMA2000 band-class 0/1 coarse mapping (C.S0057).
            Rat::Evdo | Rat::Cdma1x => Some(match self.number {
                1..=799 => 870.0 + 0.03 * f64::from(self.number),
                n => 1930.0 + 0.05 * f64::from(n % 1200),
            }),
        }
    }

    /// The LTE band number, when this is an EARFCN inside a known band.
    pub fn lte_band(self) -> Option<u16> {
        if self.rat != Rat::Lte {
            return None;
        }
        FrequencyBand::for_earfcn(self.number).map(|b| b.band)
    }
}

impl core::fmt::Display for ChannelNumber {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.number)
    }
}

/// One E-UTRA operating band row of TS 36.101 Table 5.7.3-1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyBand {
    /// E-UTRA band number.
    pub band: u16,
    /// Lowest downlink carrier frequency of the band, MHz.
    pub f_dl_low_mhz: f64,
    /// Downlink EARFCN offset (N_Offs-DL).
    pub n_offs_dl: u32,
    /// First EARFCN of the band (inclusive).
    pub earfcn_lo: u32,
    /// Last EARFCN of the band (inclusive).
    pub earfcn_hi: u32,
}

/// TS 36.101 downlink band table for the bands seen in the study plus the
/// other globally common FDD/TDD bands. Covers every channel number the
/// paper's Figure 18 lists (675…9820).
pub const LTE_BANDS: &[FrequencyBand] = &[
    FrequencyBand {
        band: 1,
        f_dl_low_mhz: 2110.0,
        n_offs_dl: 0,
        earfcn_lo: 0,
        earfcn_hi: 599,
    },
    FrequencyBand {
        band: 2,
        f_dl_low_mhz: 1930.0,
        n_offs_dl: 600,
        earfcn_lo: 600,
        earfcn_hi: 1199,
    },
    FrequencyBand {
        band: 3,
        f_dl_low_mhz: 1805.0,
        n_offs_dl: 1200,
        earfcn_lo: 1200,
        earfcn_hi: 1949,
    },
    FrequencyBand {
        band: 4,
        f_dl_low_mhz: 2110.0,
        n_offs_dl: 1950,
        earfcn_lo: 1950,
        earfcn_hi: 2399,
    },
    FrequencyBand {
        band: 5,
        f_dl_low_mhz: 869.0,
        n_offs_dl: 2400,
        earfcn_lo: 2400,
        earfcn_hi: 2649,
    },
    FrequencyBand {
        band: 7,
        f_dl_low_mhz: 2620.0,
        n_offs_dl: 2750,
        earfcn_lo: 2750,
        earfcn_hi: 3449,
    },
    FrequencyBand {
        band: 8,
        f_dl_low_mhz: 925.0,
        n_offs_dl: 3450,
        earfcn_lo: 3450,
        earfcn_hi: 3799,
    },
    FrequencyBand {
        band: 12,
        f_dl_low_mhz: 729.0,
        n_offs_dl: 5010,
        earfcn_lo: 5010,
        earfcn_hi: 5179,
    },
    FrequencyBand {
        band: 13,
        f_dl_low_mhz: 746.0,
        n_offs_dl: 5180,
        earfcn_lo: 5180,
        earfcn_hi: 5279,
    },
    FrequencyBand {
        band: 14,
        f_dl_low_mhz: 758.0,
        n_offs_dl: 5280,
        earfcn_lo: 5280,
        earfcn_hi: 5379,
    },
    FrequencyBand {
        band: 17,
        f_dl_low_mhz: 734.0,
        n_offs_dl: 5730,
        earfcn_lo: 5730,
        earfcn_hi: 5849,
    },
    FrequencyBand {
        band: 20,
        f_dl_low_mhz: 791.0,
        n_offs_dl: 6150,
        earfcn_lo: 6150,
        earfcn_hi: 6449,
    },
    FrequencyBand {
        band: 25,
        f_dl_low_mhz: 1930.0,
        n_offs_dl: 8040,
        earfcn_lo: 8040,
        earfcn_hi: 8689,
    },
    FrequencyBand {
        band: 26,
        f_dl_low_mhz: 859.0,
        n_offs_dl: 8690,
        earfcn_lo: 8690,
        earfcn_hi: 9039,
    },
    FrequencyBand {
        band: 28,
        f_dl_low_mhz: 758.0,
        n_offs_dl: 9210,
        earfcn_lo: 9210,
        earfcn_hi: 9659,
    },
    FrequencyBand {
        band: 29,
        f_dl_low_mhz: 717.0,
        n_offs_dl: 9660,
        earfcn_lo: 9660,
        earfcn_hi: 9769,
    },
    FrequencyBand {
        band: 30,
        f_dl_low_mhz: 2350.0,
        n_offs_dl: 9770,
        earfcn_lo: 9770,
        earfcn_hi: 9869,
    },
    FrequencyBand {
        band: 41,
        f_dl_low_mhz: 2496.0,
        n_offs_dl: 39650,
        earfcn_lo: 39650,
        earfcn_hi: 41589,
    },
    FrequencyBand {
        band: 66,
        f_dl_low_mhz: 2110.0,
        n_offs_dl: 66436,
        earfcn_lo: 66436,
        earfcn_hi: 67335,
    },
];

impl FrequencyBand {
    /// Look up the band containing the given downlink EARFCN.
    pub fn for_earfcn(earfcn: u32) -> Option<&'static FrequencyBand> {
        LTE_BANDS
            .iter()
            .find(|b| (b.earfcn_lo..=b.earfcn_hi).contains(&earfcn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_channels_map_to_expected_bands() {
        // Figure 18 / §5.4.1: bands 12 & 17 are AT&T's LTE-exclusive "main"
        // bands; 9820 is the band-30 WCS channel behind the user complaint.
        for (earfcn, band) in [
            (675u32, 2u16),
            (850, 2),
            (1975, 4),
            (2000, 4),
            (2175, 4),
            (2425, 5),
            (2600, 5),
            (5110, 12),
            (5145, 12),
            (5330, 14),
            (5760, 17),
            (5780, 17),
            (5815, 17),
            (9000, 26),
            (9720, 29),
            (9820, 30),
        ] {
            assert_eq!(
                ChannelNumber::earfcn(earfcn).lte_band(),
                Some(band),
                "EARFCN {earfcn}"
            );
        }
    }

    #[test]
    fn band_30_frequency_is_wcs_2300mhz_range() {
        let f = ChannelNumber::earfcn(9820).frequency_mhz().unwrap();
        assert!((2350.0..2365.0).contains(&f), "{f}");
    }

    #[test]
    fn band_12_frequency_is_700mhz_range() {
        let f = ChannelNumber::earfcn(5110).frequency_mhz().unwrap();
        assert!((729.0..746.0).contains(&f), "{f}");
    }

    #[test]
    fn earfcn_mapping_is_monotonic_within_band() {
        for b in LTE_BANDS {
            let lo = ChannelNumber::earfcn(b.earfcn_lo).frequency_mhz().unwrap();
            let hi = ChannelNumber::earfcn(b.earfcn_hi).frequency_mhz().unwrap();
            assert!(hi > lo, "band {}", b.band);
        }
    }

    #[test]
    fn bands_do_not_overlap_in_earfcn_space() {
        for (i, a) in LTE_BANDS.iter().enumerate() {
            for b in &LTE_BANDS[i + 1..] {
                assert!(
                    a.earfcn_hi < b.earfcn_lo || b.earfcn_hi < a.earfcn_lo,
                    "bands {} and {} overlap",
                    a.band,
                    b.band
                );
            }
        }
    }

    #[test]
    fn unknown_earfcn_has_no_band() {
        assert!(FrequencyBand::for_earfcn(4435).is_none()); // UARFCN in Fig 3
        assert!(ChannelNumber::earfcn(100_000).frequency_mhz().is_none());
    }

    #[test]
    fn uarfcn_maps_to_umts_2100() {
        // Fig 3's SIB6 carrierFreq 4435 is a 3G UMTS UARFCN.
        let f = ChannelNumber::uarfcn(4435).frequency_mhz().unwrap();
        assert!((880.0..890.0).contains(&f), "{f}");
    }

    #[test]
    fn rat_family_relation() {
        assert!(Rat::Umts.same_family(Rat::Gsm));
        assert!(Rat::Evdo.same_family(Rat::Cdma1x));
        assert!(!Rat::Umts.same_family(Rat::Evdo));
        assert!(Rat::Lte.same_family(Rat::Evdo));
    }

    #[test]
    fn rat_display_names_match_paper() {
        assert_eq!(Rat::Lte.to_string(), "4G LTE");
        assert_eq!(Rat::Evdo.to_string(), "3G EVDO");
    }
}
