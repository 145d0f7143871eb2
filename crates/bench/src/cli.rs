//! The one argument walker behind the four binaries. A command line is
//! on/off flags, flags that take a value, and at most one positional
//! argument, in any order; anything else — an unknown or repeated flag,
//! a missing or malformed value, a second positional, a missing required
//! one — is the usage text as `Err`, so a typo never runs the default.

use std::str::FromStr;

/// What one binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    /// The synopsis every rejection carries.
    pub usage: &'static str,
    /// On/off flags.
    pub flags: &'static [&'static str],
    /// Flags followed by one value.
    pub valued: &'static [&'static str],
    /// Whether exactly one positional argument is required (else none is
    /// accepted).
    pub positional: bool,
}

/// `experiment`'s command line ([`crate::experiment::parse`] resolves
/// the name).
pub const EXPERIMENT: Grammar = Grammar {
    usage: "usage: experiment <name> [--quick]",
    flags: &["--quick"],
    valued: &[],
    positional: true,
};

/// `scenario_run`'s command line.
pub const SCENARIO_RUN: Grammar = Grammar {
    usage: "usage: scenario_run [--quick] [--dir <scenario directory>]",
    flags: &["--quick"],
    valued: &["--dir"],
    positional: false,
};

/// `fuzz_specs`' command line.
pub const FUZZ_SPECS: Grammar = Grammar {
    usage: "usage: fuzz_specs [--quick] [--promote] [--seed N] [--mutants N]",
    flags: &["--quick", "--promote"],
    valued: &["--seed", "--mutants"],
    positional: false,
};

/// `bisect_divergence`'s command line.
#[rustfmt::skip] // one line per flag list, like its neighbours
pub const BISECT_DIVERGENCE: Grammar = Grammar {
    usage: "usage: bisect_divergence <scenario.json> [--rep N] [--every-ns N] \
            [--candidate-queue bucket|heap] [--candidate-seed N] [--out report.json]",
    flags: &[],
    valued: &["--rep", "--every-ns", "--candidate-queue", "--candidate-seed", "--out"],
    positional: true,
};

/// A command line that fit its [`Grammar`].
#[derive(Debug, Clone)]
pub struct Args {
    usage: &'static str,
    /// Every flag given, with its value (empty for an on/off flag).
    given: Vec<(&'static str, String)>,
    /// The positional argument: `Some` exactly when the grammar requires
    /// one.
    pub positional: Option<String>,
}

fn reject<T>(usage: &str, complaint: String) -> Result<T, String> {
    Err(format!("{complaint}\n\n{usage}"))
}

impl Grammar {
    /// Walks the arguments after the program name.
    pub fn parse(&self, args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            usage: self.usage,
            given: Vec::new(),
            positional: None,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let fresh = |set: &[&'static str]| {
                let known = set.iter().copied().find(|f| f == arg);
                known.filter(|f| parsed.value(f).is_none())
            };
            if let Some(flag) = fresh(self.flags) {
                parsed.given.push((flag, String::new()));
            } else if let Some(flag) = fresh(self.valued) {
                let Some(value) = args.next() else {
                    return reject(self.usage, format!("`{flag}` takes a value"));
                };
                parsed.given.push((flag, value.clone()));
            } else if self.positional && parsed.positional.is_none() && !arg.starts_with("--") {
                parsed.positional = Some(arg.clone());
            } else {
                return reject(self.usage, format!("unexpected argument `{arg}`"));
            }
        }
        if self.positional && parsed.positional.is_none() {
            return Err(self.usage.to_string());
        }
        Ok(parsed)
    }
}

impl Args {
    /// Whether the on/off `flag` was given.
    pub fn flag(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The value given to `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let found = self.given.iter().find(|(f, _)| *f == flag);
        found.map(|(_, v)| v.as_str())
    }

    /// The value given to `flag`, parsed; a value that does not parse is
    /// the usage error.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(value) = self.value(flag) else {
            return Ok(None);
        };
        match value.parse() {
            Ok(v) => Ok(Some(v)),
            Err(_) => reject(
                self.usage,
                format!("`{flag}` takes a number, not `{value}`"),
            ),
        }
    }
}
