//! Flag parsing and error type for the CLI.

use std::collections::HashMap;

/// A user-facing CLI failure.
#[derive(Debug)]
pub struct CliError {
    message: String,
}

impl CliError {
    /// Usage / validation error.
    pub fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Wrap an I/O error.
    pub fn io(err: std::io::Error) -> Self {
        Self {
            message: format!("i/o error: {err}"),
        }
    }

    /// The message shown to the user.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Split `argv` into the subcommand and its parsed flags.
///
/// # Errors
///
/// Errors when no subcommand is given or flags are malformed.
pub fn split_command(argv: &[String]) -> Result<(String, Args), CliError> {
    let mut iter = argv.iter();
    let command = iter
        .next()
        .ok_or_else(|| CliError::usage(format!("missing command\n\n{}", crate::usage())))?
        .clone();
    let args = Args::parse(iter.cloned())?;
    Ok((command, args))
}

/// Parsed `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    /// Keys the command actually read — used to flag typos.
    consumed: std::cell::RefCell<std::collections::HashSet<String>>,
}

impl Args {
    /// Parse a flag stream (`--key value` or `--key=value`).
    ///
    /// # Errors
    ///
    /// Errors on positional arguments or dangling keys.
    pub fn parse(iter: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let mut values = HashMap::new();
        let mut iter = iter.into_iter();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| CliError::usage(format!("expected --flag, got {arg:?}")))?;
            if let Some((k, v)) = key.split_once('=') {
                values.insert(k.to_string(), v.to_string());
            } else {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::usage(format!("missing value for --{key}")))?;
                values.insert(key.to_string(), v);
            }
        }
        Ok(Self {
            values,
            consumed: Default::default(),
        })
    }

    fn raw(&self, key: &str) -> Option<&String> {
        self.consumed.borrow_mut().insert(key.to_string());
        self.values.get(key)
    }

    /// String flag with default.
    pub fn str(&self, key: &str, default: &str) -> String {
        self.raw(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Required string flag.
    ///
    /// # Errors
    ///
    /// Errors when the flag is absent.
    pub fn str_required(&self, key: &str) -> Result<String, CliError> {
        self.raw(key)
            .cloned()
            .ok_or_else(|| CliError::usage(format!("missing required flag --{key}")))
    }

    /// `u64` flag with default.
    ///
    /// # Errors
    ///
    /// Errors when the value does not parse.
    pub fn u64(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.raw(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("--{key} must be an integer, got {v:?}"))),
        }
    }

    /// `f64` flag with default.
    ///
    /// # Errors
    ///
    /// Errors when the value does not parse.
    pub fn f64(&self, key: &str, default: f64) -> Result<f64, CliError> {
        match self.raw(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("--{key} must be a number, got {v:?}"))),
        }
    }

    /// After a command has read its flags, reject any leftovers (typos).
    ///
    /// # Errors
    ///
    /// Errors when an unknown flag was supplied.
    pub fn finish(&self) -> Result<(), CliError> {
        let consumed = self.consumed.borrow();
        let mut unknown: Vec<&String> = self
            .values
            .keys()
            .filter(|k| !consumed.contains(*k))
            .collect();
        unknown.sort();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(CliError::usage(format!(
                "unknown flag(s): {}",
                unknown
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_both_flag_forms() {
        let a = parse(&["--n", "5", "--scheme=rrp"]);
        assert_eq!(a.u64("n", 0).unwrap(), 5);
        assert_eq!(a.str("scheme", ""), "rrp");
        let err = parse(&["--n", "abc"]).u64("n", 0).unwrap_err();
        assert!(err.message().contains("--n must be an integer"), "{err}");
    }

    #[test]
    fn defaults_and_required() {
        let a = parse(&[]);
        assert_eq!(a.u64("n", 7).unwrap(), 7);
        assert!(a.str_required("in").is_err());
    }

    #[test]
    fn rejects_positional() {
        assert!(Args::parse(["boom".to_string()]).is_err());
        let err = Args::parse(["--n".to_string()]).unwrap_err();
        assert!(err.message().contains("missing value for --n"), "{err}");
    }

    #[test]
    fn finish_flags_typos() {
        let a = parse(&["--nodez", "5"]);
        let _ = a.u64("n", 0);
        let err = a.finish().unwrap_err();
        assert!(err.message().contains("--nodez"));
    }

    #[test]
    fn finish_accepts_consumed() {
        let a = parse(&["--n", "5"]);
        let _ = a.u64("n", 0);
        assert!(a.finish().is_ok());
    }

    #[test]
    fn split_extracts_command() {
        let argv: Vec<String> = ["generate", "--n", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (cmd, args) = split_command(&argv).unwrap();
        assert_eq!(cmd, "generate");
        assert_eq!(args.u64("n", 0).unwrap(), 5);
    }
}
