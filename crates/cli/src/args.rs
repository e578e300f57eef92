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
        self.int(key, default)
    }

    /// Unsigned integer flag with default, read at the width of the type
    /// it lands in: a value too large for `T` is an error naming the flag
    /// and `T`'s largest value, never a silent wrap.
    ///
    /// # Errors
    ///
    /// Errors when the value does not parse or does not fit `T`.
    pub fn int<T: TryFrom<u64>>(&self, key: &str, default: T) -> Result<T, CliError> {
        let Some(v) = self.raw(key) else {
            return Ok(default);
        };
        let wide: u64 = v
            .parse()
            .map_err(|_| CliError::usage(format!("--{key} must be an integer, got {v:?}")))?;
        T::try_from(wide).map_err(|_| {
            let max = u64::MAX >> (64 - 8 * std::mem::size_of::<T>());
            CliError::usage(format!("--{key} must be at most {max}, got {v}"))
        })
    }

    /// Flag that must be one of `choices` (default `default`).
    ///
    /// # Errors
    ///
    /// Errors naming every choice when the value is none of them.
    pub fn choice<'a>(
        &self,
        key: &str,
        default: &'a str,
        choices: &[&'a str],
    ) -> Result<&'a str, CliError> {
        let Some(v) = self.raw(key) else {
            return Ok(default);
        };
        choices.iter().find(|c| *c == v).copied().ok_or_else(|| {
            let (last, rest) = choices.split_last().expect("at least one choice");
            CliError::usage(format!(
                "--{key} must be {} or {last}, got {v:?}",
                rest.join(", ")
            ))
        })
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
    fn int_reads_at_the_target_width() {
        let a = parse(&["--p", "4294967295", "--q", "4294967296", "--r", "-1"]);
        assert_eq!(a.int::<u32>("p", 0).unwrap(), u32::MAX);
        let err = a.int::<u32>("q", 0).unwrap_err();
        assert_eq!(
            err.message(),
            "--q must be at most 4294967295, got 4294967296"
        );
        assert_eq!(a.int::<u64>("q", 0).unwrap(), 1 << 32);
        let err = a.int::<u8>("p", 0).unwrap_err();
        assert!(err.message().contains("at most 255"), "{err}");
        let err = a.int::<usize>("r", 0).unwrap_err();
        assert!(err.message().contains("--r must be an integer"), "{err}");
        assert_eq!(a.int::<u32>("absent", 7).unwrap(), 7);
    }

    #[test]
    fn choice_names_every_option() {
        let a = parse(&["--two", "on", "--three", "loud"]);
        assert_eq!(a.choice("two", "off", &["on", "off"]).unwrap(), "on");
        assert_eq!(a.choice("absent", "off", &["on", "off"]).unwrap(), "off");
        let err = a
            .choice("three", "off", &["off", "light", "aggressive"])
            .unwrap_err();
        assert_eq!(
            err.message(),
            "--three must be off, light or aggressive, got \"loud\""
        );
        let err = a.choice("three", "auto", &["auto", "off"]).unwrap_err();
        assert_eq!(err.message(), "--three must be auto or off, got \"loud\"");
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
