//! Tiny dependency-free argument parser: `--key value` flags plus
//! positional arguments, with typed accessors and unknown-flag
//! detection.

use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub(crate) struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArgError(pub(crate) String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw tokens. A `--flag` must be followed by a value.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut iter = tokens.into_iter();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError(format!("--{name} expects a value")))?;
                out.flags.insert(name.to_string(), value);
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// Positional argument by index.
    pub(crate) fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// String flag.
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Required string flag.
    pub(crate) fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError(format!("missing required --{name}")))
    }

    /// Typed flag with default.
    pub(crate) fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|e| ArgError(format!("--{name} '{s}': {e}"))),
        }
    }

    /// Typed flag with default, rejected below `min`: sizes and counts
    /// the libraries assert on are checked here, where they enter.
    pub(crate) fn get_at_least<T>(&self, name: &str, default: T, min: T) -> Result<T, ArgError>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
        T::Err: std::fmt::Display,
    {
        let value = self.get_or(name, default)?;
        if value < min {
            return Err(ArgError(format!("--{name} must be at least {min}")));
        }
        Ok(value)
    }

    /// Reject flags outside the allowed set (catches typos).
    pub(crate) fn check_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{k} (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn positional_and_flags() {
        let a = parse("infer --model m.spn data.csv --format lns");
        assert_eq!(a.positional(0), Some("infer"));
        assert_eq!(a.positional(1), Some("data.csv"));
        assert_eq!(a.get("model"), Some("m.spn"));
        assert_eq!(a.get("format"), Some("lns"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn typed_defaults() {
        let a = parse("x --pes 8");
        assert_eq!(a.get_or("pes", 4u32).unwrap(), 8);
        assert_eq!(a.get_or("threads", 2u32).unwrap(), 2);
        assert!(a.get_or::<u32>("pes", 0).is_ok());
        let bad = parse("x --pes eight");
        assert!(bad.get_or("pes", 4u32).is_err());
    }

    #[test]
    fn lower_bound_applies_to_given_values_and_names_the_flag() {
        let a = parse("x --pes 0 --block 7");
        assert_eq!(
            a.get_at_least("pes", 4u32, 1),
            Err(ArgError("--pes must be at least 1".into()))
        );
        assert_eq!(a.get_at_least("block", 64u64, 1), Ok(7));
        assert_eq!(a.get_at_least("threads", 2u32, 1), Ok(2));
        assert!(parse("x --pes two").get_at_least("pes", 4u32, 1).is_err());
    }

    #[test]
    fn required_and_unknown() {
        let a = parse("x --model m.spn");
        assert!(a.require("model").is_ok());
        assert!(a.require("data").is_err());
        assert!(a.check_known(&["model"]).is_ok());
        assert!(a.check_known(&["data"]).is_err());
    }

    #[test]
    fn dangling_flag_is_error() {
        assert!(Args::parse(vec!["--oops".to_string()]).is_err());
    }
}
