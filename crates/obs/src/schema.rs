//! Shared schema-version validation for persisted documents.
//!
//! Every persisted artifact in this workspace is versioned — JSON
//! documents carry a `"schema"` field (`nodefz-metrics-v1`,
//! `nodefz-throughput-v2`, …), text formats a first-line header
//! (`nodefz-trace v1`, `nodefz-repro v1`). Before this module each
//! reader hand-rolled the check, and the hand-rolled copies drifted:
//! some returned strings, some typed errors, and some silently treated a
//! wrong version as a missing file. These helpers are the one shared
//! implementation, with a typed error that always distinguishes "no
//! version at all" from "a version this build does not understand" —
//! the latter is the signal that data from a newer tool reached an older
//! reader, which must never be mistaken for absence.

use std::fmt;

use crate::parse::JsonValue;

/// Why a document failed schema validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// The document carries no schema/version marker at all.
    Missing {
        /// The marker the reader expected.
        expected: String,
    },
    /// The document names a schema this reader does not understand.
    Mismatch {
        /// The marker the reader expected.
        expected: String,
        /// The marker the document actually carries.
        found: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Missing { expected } => {
                write!(f, "missing schema marker (expected '{expected}')")
            }
            SchemaError::Mismatch { expected, found } => {
                write!(f, "unsupported schema '{found}' (expected '{expected}')")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Checks that a parsed JSON document's `"schema"` field equals
/// `expected`.
///
/// # Errors
///
/// [`SchemaError::Missing`] when the field is absent or not a string,
/// [`SchemaError::Mismatch`] when it names a different schema.
pub fn expect_schema(doc: &JsonValue, expected: &str) -> Result<(), SchemaError> {
    match doc.get("schema").and_then(|s| s.as_str()) {
        None => Err(SchemaError::Missing {
            expected: expected.to_string(),
        }),
        Some(found) if found == expected => Ok(()),
        Some(found) => Err(SchemaError::Mismatch {
            expected: expected.to_string(),
            found: found.to_string(),
        }),
    }
}

/// Checks a text document's version header line against `expected`
/// (e.g. `"nodefz-trace v1"`). A line that names the same format family
/// — same text up to the last space — but a different version reports
/// [`SchemaError::Mismatch`]; anything else reports
/// [`SchemaError::Missing`].
///
/// # Errors
///
/// See above.
pub fn expect_header(line: &str, expected: &str) -> Result<(), SchemaError> {
    let line = line.trim();
    if line == expected {
        return Ok(());
    }
    let family = expected.rsplit_once(' ').map_or(expected, |(f, _)| f);
    if line.starts_with(family) {
        Err(SchemaError::Mismatch {
            expected: expected.to_string(),
            found: line.to_string(),
        })
    } else {
        Err(SchemaError::Missing {
            expected: expected.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_schema_checks_distinguish_missing_from_mismatch() {
        let good = JsonValue::parse("{\"schema\": \"nodefz-x-v1\"}").unwrap();
        assert_eq!(expect_schema(&good, "nodefz-x-v1"), Ok(()));
        let newer = JsonValue::parse("{\"schema\": \"nodefz-x-v9\"}").unwrap();
        assert!(matches!(
            expect_schema(&newer, "nodefz-x-v1"),
            Err(SchemaError::Mismatch { found, .. }) if found == "nodefz-x-v9"
        ));
        let absent = JsonValue::parse("{\"runs\": 3}").unwrap();
        assert!(matches!(
            expect_schema(&absent, "nodefz-x-v1"),
            Err(SchemaError::Missing { .. })
        ));
    }

    #[test]
    fn header_checks_distinguish_wrong_version_from_garbage() {
        assert_eq!(expect_header("nodefz-trace v1", "nodefz-trace v1"), Ok(()));
        assert_eq!(
            expect_header("  nodefz-trace v1  ", "nodefz-trace v1"),
            Ok(())
        );
        assert!(matches!(
            expect_header("nodefz-trace v7", "nodefz-trace v1"),
            Err(SchemaError::Mismatch { found, .. }) if found == "nodefz-trace v7"
        ));
        assert!(matches!(
            expect_header("pool concurrent 4", "nodefz-trace v1"),
            Err(SchemaError::Missing { .. })
        ));
    }
}
