//! The command-line layer shared by `mmx`, `mmq` and `mmqd`: typed flag
//! values, the context flags that pick a [`Ctx`] and its store, the
//! `--metrics[=FILE]` sink, and the error report every binary prints.
//!
//! Each binary's argument loop offers every argument to
//! [`CtxFlags::take`] first and matches only its own flags after it.
//! Values are checked where they enter: `--scale` must be `paper` or a
//! finite fraction in (0, 1], and `--duration-s` must fit in a `u64`
//! count of milliseconds, so a bad value is a usage error (exit 2) before
//! anything is sized from it.

use crate::{Ctx, MmError};
use std::fmt::Display;
use std::str::FromStr;

/// The value after `flag`, parsed as a number.
pub fn num<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, MmError> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| MmError::Config(format!("{flag} expects a number")))
}

/// The value after `flag`; a missing one is an error saying it expects
/// `what`.
pub fn value(flag: &str, what: &str, arg: Option<String>) -> Result<String, MmError> {
    arg.ok_or_else(|| MmError::Config(format!("{flag} expects {what}")))
}

/// `--scale X|paper`: `paper` is the paper's full crawl (1.0, ~32k cells,
/// ~8M samples); any other value must be a finite fraction of that
/// deployment in (0, 1].
pub fn scale(value: Option<String>) -> Result<f64, MmError> {
    if value.as_deref() == Some("paper") {
        return Ok(1.0);
    }
    let scale: f64 = num("--scale", value)?;
    // False for NaN too.
    if scale > 0.0 && scale <= 1.0 {
        Ok(scale)
    } else {
        Err(MmError::Config(format!(
            "--scale expects a fraction in (0, 1] or `paper`, got {scale:?}"
        )))
    }
}

/// `--duration-s N`, converted to milliseconds.
pub fn duration_ms(value: Option<String>) -> Result<u64, MmError> {
    let secs: u64 = num("--duration-s", value)?;
    secs.checked_mul(1000).ok_or_else(|| {
        MmError::Config(format!(
            "--duration-s expects at most {} seconds",
            u64::MAX / 1000
        ))
    })
}

/// The flags that pick a [`Ctx`] and its store: `--seed`, `--scale`,
/// `--runs`, `--duration-s`, `--quick` and `--store`. Flags left unset
/// keep [`CtxBuilder`](crate::CtxBuilder)'s defaults.
#[derive(Debug, Default)]
pub struct CtxFlags {
    seed: Option<u64>,
    scale: Option<f64>,
    runs: Option<usize>,
    duration_ms: Option<u64>,
    /// `--quick`: the small test preset.
    pub quick: bool,
    /// `--store DIR`.
    pub store: Option<String>,
}

impl CtxFlags {
    /// Consume `flag`, and its value from `args`, if it is a context flag.
    /// `Ok(false)` leaves any other flag to the caller.
    pub fn take(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, MmError> {
        match flag {
            "--seed" => self.seed = Some(num(flag, args.next())?),
            "--scale" => self.scale = Some(scale(args.next())?),
            "--runs" => self.runs = Some(num(flag, args.next())?),
            "--duration-s" => self.duration_ms = Some(duration_ms(args.next())?),
            "--quick" => self.quick = true,
            "--store" => self.store = Some(value(flag, "a directory", args.next())?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Reject `--quick` with `--scale`: the preset fixes the scale.
    pub fn check(&self) -> Result<(), MmError> {
        if self.quick && self.scale.is_some() {
            return Err(MmError::Config(
                "--quick and --scale conflict; --quick is the fixed small preset".into(),
            ));
        }
        Ok(())
    }

    /// The context these flags pick.
    pub fn build(&self) -> Ctx {
        let mut builder = Ctx::builder();
        if let Some(seed) = self.seed {
            builder = builder.seed(seed);
        }
        if self.quick {
            builder = builder.quick();
        }
        if let Some(scale) = self.scale {
            builder = builder.scale(scale);
        }
        if let Some(runs) = self.runs {
            builder = builder.runs(runs);
        }
        if let Some(ms) = self.duration_ms {
            builder = builder.duration_ms(ms);
        }
        builder.build()
    }
}

/// Where the `--metrics` snapshot goes.
#[derive(Debug, Default, PartialEq, Eq)]
pub enum MetricsSink {
    /// No `--metrics` flag.
    #[default]
    Off,
    /// `--metrics`: one line on stderr.
    Stderr,
    /// `--metrics=FILE`: the file, newline-terminated.
    File(String),
}

impl MetricsSink {
    /// The sink `flag` names, if it is `--metrics` or `--metrics=FILE`.
    pub fn parse(flag: &str) -> Option<MetricsSink> {
        if flag == "--metrics" {
            return Some(MetricsSink::Stderr);
        }
        flag.strip_prefix("--metrics=")
            .map(|path| MetricsSink::File(path.to_string()))
    }

    /// Write the snapshot `render` returns to the sink. `render` runs only
    /// when the sink is on.
    pub fn emit<D: Display>(&self, render: impl FnOnce() -> D) -> Result<(), MmError> {
        match self {
            MetricsSink::Off => {}
            MetricsSink::Stderr => eprintln!("{}", render()),
            MetricsSink::File(path) => std::fs::write(path, format!("{}\n", render()))?,
        }
        Ok(())
    }
}

/// Print `bin`'s report of `err` on stderr and return the process exit
/// code ([`MmError::exit_code`]). Usage errors carry the full usage text;
/// runtime errors get an `error:` prefix.
pub fn report(bin: &str, err: &MmError) -> i32 {
    if err.is_usage() {
        eprintln!("{bin}: {err}");
    } else {
        eprintln!("{bin}: error: {err}");
    }
    err.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<CtxFlags, MmError> {
        let mut flags = CtxFlags::default();
        let mut it = args.iter().map(|a| a.to_string());
        while let Some(a) = it.next() {
            assert!(flags.take(&a, &mut it)?, "{a} is a context flag");
        }
        Ok(flags)
    }

    fn knobs(ctx: &Ctx) -> (u64, f64, usize, u64) {
        (ctx.seed, ctx.scale, ctx.runs, ctx.duration_ms)
    }

    #[test]
    fn unset_flags_keep_the_builder_defaults() {
        let plain = flags(&[]).expect("no flags");
        assert_eq!(knobs(&plain.build()), knobs(&Ctx::builder().build()));
        let quick = flags(&["--quick"]).expect("--quick");
        assert_eq!(
            knobs(&quick.build()),
            knobs(&Ctx::builder().quick().build())
        );
        let set = flags(&["--seed", "7", "--scale", "paper", "--runs", "3"])
            .expect("valid flags")
            .build();
        assert_eq!(knobs(&set), (7, 1.0, 3, Ctx::builder().build().duration_ms));
        let conflict = flags(&["--quick", "--scale", "0.1"]).expect("parses");
        assert!(conflict.check().is_err());
        assert!(quick.check().is_ok());
    }

    #[test]
    fn scale_is_paper_or_a_fraction_in_the_unit_interval() {
        assert_eq!(scale(Some("paper".into())).expect("paper"), 1.0);
        assert_eq!(scale(Some("1".into())).expect("1"), 1.0);
        assert_eq!(scale(Some("0.05".into())).expect("0.05"), 0.05);
        for bad in ["inf", "-inf", "nan", "0", "-1", "1e300", "1.5"] {
            match scale(Some(bad.into())) {
                Err(MmError::Config(msg)) => assert!(msg.contains("(0, 1]"), "{bad}: {msg}"),
                other => panic!("--scale {bad} must be rejected: {other:?}"),
            }
        }
        match scale(Some("big".into())) {
            Err(MmError::Config(msg)) => assert_eq!(msg, "--scale expects a number"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duration_overflow_is_a_usage_error() {
        assert_eq!(duration_ms(Some("2".into())).expect("2 s"), 2_000);
        let max = u64::MAX / 1000;
        assert_eq!(
            duration_ms(Some(max.to_string())).expect("largest"),
            max * 1000
        );
        let err = duration_ms(Some((max + 1).to_string())).expect_err("overflows");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--duration-s"), "{err}");
    }

    #[test]
    fn metrics_flag_has_two_forms() {
        assert_eq!(MetricsSink::parse("--metrics"), Some(MetricsSink::Stderr));
        assert_eq!(
            MetricsSink::parse("--metrics=m.json"),
            Some(MetricsSink::File("m.json".into()))
        );
        assert_eq!(MetricsSink::parse("--metricsx"), None);
        assert_eq!(MetricsSink::parse("--seed"), None);
    }

    #[test]
    fn an_off_sink_never_renders() {
        let mut rendered = false;
        MetricsSink::Off
            .emit(|| {
                rendered = true;
                ""
            })
            .expect("off is infallible");
        assert!(!rendered);
    }
}
