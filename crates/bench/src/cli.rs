//! Shared command-line parsing for every experiment binary.
//!
//! Historically each binary in `src/bin/` re-scanned `std::env::args()` for
//! its flags; this module is the single parser they all route through now.
//! It understands boolean flags (`--paper`, `--parallel`) and valued flags
//! (`--seed 7`, `--scenario all`), validates that every argument is a flag
//! the caller declared, and exposes the two derived settings
//! ([`BudgetClass`], [`EngineKind`]) the per-figure binaries share.

use crate::{BudgetClass, EngineKind};

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct CliArgs {
    args: Vec<String>,
}

impl CliArgs {
    /// Parses the process command line (skipping the binary name).
    pub fn parse() -> Self {
        Self::from_vec(std::env::args().skip(1).collect())
    }

    /// Builds from an explicit argument vector (tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        Self { args }
    }

    /// Returns `true` when the boolean flag is present.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The value following a valued flag, if the flag is present.
    ///
    /// # Errors
    ///
    /// Returns an error when the flag is present but the value is missing.
    pub fn value_of(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match self.args.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v)),
                _ => Err(format!("flag {flag} requires a value")),
            },
        }
    }

    /// Parses the value of a numeric flag, with a default when absent.
    pub fn u64_of(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value_of(flag)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {flag}: expected an integer, got {v:?}")),
        }
    }

    /// Parses the value of a flag with `parse` (a label parser such as
    /// `Algo::parse`), with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns an error when the value is missing or `parse` rejects it.
    pub fn parsed_or<T>(
        &self,
        flag: &str,
        default: T,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.value_of(flag)? {
            None => Ok(default),
            Some(v) => {
                parse(v).ok_or_else(|| format!("unknown {} {v:?}", flag.trim_start_matches("--")))
            }
        }
    }

    /// Validates that every argument is either one of `boolean_flags`, one
    /// of `valued_flags`, or the value of a valued flag, and that no flag
    /// is given twice ([`Self::value_of`] would silently take the first
    /// value).
    ///
    /// # Errors
    ///
    /// Returns the first unrecognized or repeated argument.
    pub fn expect_only(&self, boolean_flags: &[&str], valued_flags: &[&str]) -> Result<(), String> {
        let mut seen: Vec<&str> = Vec::new();
        let mut skip_value = false;
        for a in &self.args {
            if skip_value {
                skip_value = false;
                continue;
            }
            let a = a.as_str();
            if !boolean_flags.contains(&a) && !valued_flags.contains(&a) {
                return Err(format!("unrecognized argument {a:?}"));
            }
            if seen.contains(&a) {
                return Err(format!("flag {a} given more than once"));
            }
            seen.push(a);
            skip_value = valued_flags.contains(&a);
        }
        Ok(())
    }

    /// The engine selection shared by all binaries (`--parallel`).
    pub fn engine_kind(&self) -> EngineKind {
        if self.has("--parallel") {
            EngineKind::Parallel
        } else {
            EngineKind::Serial
        }
    }
}

/// Parses and validates the figure-binary command line (`--paper`,
/// `--parallel` only), exiting with a usage message on anything else.
/// `--paper` selects [`BudgetClass::Paper`] (default
/// [`BudgetClass::Small`]), `--parallel` the parallel engine.
pub fn figure_binary_scale() -> (BudgetClass, EngineKind) {
    let args = CliArgs::parse();
    if let Err(e) = args.expect_only(&["--paper", "--parallel"], &[]) {
        eprintln!("error: {e}");
        eprintln!("usage: [--paper] [--parallel]");
        std::process::exit(2);
    }
    figure_settings(&args)
}

fn figure_settings(args: &CliArgs) -> (BudgetClass, EngineKind) {
    let budget = if args.has("--paper") {
        BudgetClass::Paper
    } else {
        BudgetClass::Small
    };
    (budget, args.engine_kind())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> CliArgs {
        CliArgs::from_vec(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn boolean_and_valued_flags() {
        let a = args(&["--paper", "--seed", "7", "--scenario", "all"]);
        assert!(a.has("--paper"));
        assert!(!a.has("--parallel"));
        assert_eq!(a.value_of("--seed").unwrap(), Some("7"));
        assert_eq!(a.u64_of("--seed", 1).unwrap(), 7);
        assert_eq!(a.u64_of("--budget-n", 42).unwrap(), 42);
        assert_eq!(a.value_of("--scenario").unwrap(), Some("all"));
        assert_eq!(a.parsed_or("--seed", 0, |v| v.parse().ok()).unwrap(), 7);
        assert_eq!(a.parsed_or("--algo", 3, |_| None).unwrap(), 3);
        let err = a.parsed_or("--scenario", 0, |_| None::<u8>).unwrap_err();
        assert_eq!(err, "unknown scenario \"all\"");
    }

    #[test]
    fn missing_value_is_an_error() {
        let a = args(&["--seed"]);
        assert!(a.value_of("--seed").is_err());
        let b = args(&["--seed", "--paper"]);
        assert!(b.value_of("--seed").is_err());
        assert!(args(&["--seed", "x"]).u64_of("--seed", 1).is_err());
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        let a = args(&["--paper", "--bogus"]);
        assert!(a.expect_only(&["--paper"], &[]).is_err());
        let b = args(&["--seed", "7", "--parallel"]);
        assert!(b.expect_only(&["--parallel"], &["--seed"]).is_ok());
    }

    #[test]
    fn repeated_flags_are_rejected() {
        let valued = args(&["--seeds", "3", "--seeds", "5"]);
        let err = valued.expect_only(&[], &["--seeds"]).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
        let boolean = args(&["--parallel", "--parallel"]);
        assert!(boolean.expect_only(&["--parallel"], &[]).is_err());
        // A value equal to a flag name is a value, not a repetition.
        let value = args(&["--out-dir", "--out-dir"]);
        assert!(value.expect_only(&[], &["--out-dir"]).is_ok());
    }

    #[test]
    fn derived_settings() {
        assert_eq!(args(&["--parallel"]).engine_kind(), EngineKind::Parallel);
        assert_eq!(args(&[]).engine_kind(), EngineKind::Serial);
        assert_eq!(
            figure_settings(&args(&["--paper", "--parallel"])),
            (BudgetClass::Paper, EngineKind::Parallel)
        );
        assert_eq!(
            figure_settings(&args(&[])),
            (BudgetClass::Small, EngineKind::Serial)
        );
    }
}
