//! Strict parsing of the examples' positional arguments.
//!
//! `run_experiment fig10 80k` must not quietly run the default scale: a
//! value that is present but malformed is an error naming the argument
//! and the value, the same rule `catch_harness::env_var` applies to the
//! bench environment variables.

use std::fmt::{self, Display};

/// A positional argument whose value did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError {
    name: String,
    value: String,
    reason: String,
}

impl Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}: {:?}: {}",
            self.name, self.value, self.reason
        )
    }
}

impl std::error::Error for ArgError {}

impl ArgError {
    /// Prints the error to stderr and exits with status 2 (bad usage).
    pub fn exit(self) -> ! {
        eprintln!("{self}");
        std::process::exit(2)
    }
}

/// Parses the optional positional argument `name` with `parse`: `None`
/// when it is absent, the parsed value otherwise.
///
/// # Errors
///
/// Returns an [`ArgError`] naming `name` and the raw value when `parse`
/// rejects it.
///
/// # Example
///
/// ```
/// use catch_core::cli::parse_arg;
///
/// assert_eq!(parse_arg("ops", None, str::parse::<usize>), Ok(None));
/// assert_eq!(parse_arg("ops", Some("8000"), str::parse::<usize>), Ok(Some(8000)));
/// let err = parse_arg("ops", Some("80k"), str::parse::<usize>).unwrap_err();
/// assert!(err.to_string().starts_with("invalid ops: \"80k\""));
/// ```
pub fn parse_arg<T, E: Display>(
    name: &str,
    raw: Option<&str>,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Option<T>, ArgError> {
    let Some(text) = raw else {
        return Ok(None);
    };
    parse(text).map(Some).map_err(|e| ArgError {
        name: name.to_string(),
        value: text.to_string(),
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_is_none_and_a_valid_value_parses() {
        assert_eq!(parse_arg("ops", None, str::parse::<usize>), Ok(None));
        assert_eq!(
            parse_arg("warmup", Some("2000"), str::parse::<usize>),
            Ok(Some(2000))
        );
        assert_eq!(
            parse_arg("seed", Some("18446744073709551615"), str::parse::<u64>),
            Ok(Some(u64::MAX))
        );
    }

    #[test]
    fn a_malformed_value_is_an_error_naming_argument_and_value() {
        for bad in ["", "80k", "-1", " 3", "abc", "1e6", "99999999999999999999"] {
            let err = parse_arg("ops", Some(bad), str::parse::<usize>)
                .expect_err("value must be rejected");
            let msg = err.to_string();
            assert!(msg.starts_with("invalid ops: "), "{msg}");
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
        }
    }
}
