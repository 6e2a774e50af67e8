//! Traffic models driving the Type-II experiments: continuous speedtest,
//! constant-rate iPerf (the paper used 5 kbit/s and 1 Mbit/s), and a
//! 5-second ping.

/// A downlink traffic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Greedy continuous speedtest — consumes whatever the link offers.
    Speedtest,
    /// Constant bit rate (iPerf-style).
    Cbr {
        /// Offered rate, bit/s.
        rate_bps: f64,
    },
    /// ICMP ping every `interval_ms` (Google ping in the paper).
    Ping {
        /// Probe interval, ms.
        interval_ms: u64,
    },
}

impl Traffic {
    /// The paper's low-rate iPerf run (5 kbit/s).
    pub fn iperf_5kbps() -> Self {
        Traffic::Cbr { rate_bps: 5_000.0 }
    }

    /// The paper's high-rate iPerf run (1 Mbit/s).
    pub fn iperf_1mbps() -> Self {
        Traffic::Cbr {
            rate_bps: 1_000_000.0,
        }
    }

    /// The paper's ping workload (every five seconds).
    pub fn ping_5s() -> Self {
        Traffic::Ping { interval_ms: 5_000 }
    }

    /// Goodput this epoch given what the link can carry, bit/s.
    pub fn goodput_bps(&self, link_bps: f64) -> f64 {
        match self {
            Traffic::Speedtest => link_bps,
            Traffic::Cbr { rate_bps } => rate_bps.min(link_bps),
            Traffic::Ping { .. } => 0.0, // ping measures latency, not rate
        }
    }

    /// Is a ping probe due in the epoch `[t_ms, t_ms + epoch_ms)`?
    pub fn ping_due(&self, t_ms: u64, epoch_ms: u64) -> bool {
        match self {
            Traffic::Ping { interval_ms } => {
                let iv = (*interval_ms).max(1);
                (t_ms % iv) < epoch_ms
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedtest_takes_everything() {
        assert_eq!(Traffic::Speedtest.goodput_bps(7e6), 7e6);
    }

    #[test]
    fn cbr_caps_at_offered_rate() {
        let t = Traffic::iperf_1mbps();
        assert_eq!(t.goodput_bps(7e6), 1e6);
        assert_eq!(t.goodput_bps(0.3e6), 0.3e6);
    }

    #[test]
    fn ping_schedule_every_interval() {
        let t = Traffic::ping_5s();
        assert!(t.ping_due(0, 100));
        assert!(!t.ping_due(100, 100));
        assert!(!t.ping_due(4_900, 100));
        assert!(t.ping_due(5_000, 100));
        assert!(t.ping_due(10_000, 100));
    }

    #[test]
    fn paper_rates_are_exact() {
        assert_eq!(Traffic::iperf_5kbps(), Traffic::Cbr { rate_bps: 5_000.0 });
        assert_eq!(
            Traffic::iperf_1mbps(),
            Traffic::Cbr {
                rate_bps: 1_000_000.0
            }
        );
    }
}
