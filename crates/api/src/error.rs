//! The unified error taxonomy of the LEQA service surface.
//!
//! Every failure anywhere in the stack — argument parsing, circuit I/O,
//! estimation, detailed mapping, JSON decoding — surfaces as one
//! [`LeqaError`]: a machine-readable [`ErrorKind`], a human message, and a
//! context chain built up as the error crosses layers. Each kind maps to a
//! stable process exit code (see [`LeqaError::exit_code`] and the table in
//! `API.md`), and errors serialize to JSON so batch responses can carry
//! per-request failures.

use std::fmt;

use crate::json::{Json, JsonError};

/// The stable failure categories of the API.
///
/// `#[non_exhaustive]`: new categories may appear; match with a wildcard
/// arm. Existing kinds and their exit codes never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The request itself is malformed (unknown flag, missing argument,
    /// unknown benchmark name).
    Usage,
    /// An input could not be read (file system, pipes).
    Io,
    /// Circuit text failed to parse.
    Parse,
    /// A structurally valid input violates a domain rule (qubit out of
    /// range, zero-sized fabric, bad option value).
    Invalid,
    /// The latency estimator rejected the request (e.g. fabric too small).
    Estimate,
    /// The detailed QSPR mapper rejected the request.
    Map,
    /// A JSON request/response failed to decode or used an unsupported
    /// schema version.
    Json,
    /// The service refused the request under admission control — the
    /// connection or in-flight cap was reached, or the server is
    /// draining for shutdown. Retryable: back off and resend.
    Overloaded,
    /// The fabric's defect map disconnects a required qubit transfer:
    /// no defect-free route exists (dead cells/channels percolate).
    Unroutable,
    /// The request's `timeout_ms` deadline elapsed before a reply could
    /// be produced. The work may or may not have run; resend with a
    /// larger budget if the answer is still wanted.
    DeadlineExceeded,
    /// A bug: an invariant the service relies on did not hold.
    Internal,
}

impl ErrorKind {
    /// Every kind, in exit-code order — the canonical enumeration the
    /// documentation-sync tests iterate (update this when adding a
    /// kind, or the `error_table` test will fail the build).
    pub const ALL: [ErrorKind; 11] = [
        ErrorKind::Usage,
        ErrorKind::Io,
        ErrorKind::Parse,
        ErrorKind::Invalid,
        ErrorKind::Estimate,
        ErrorKind::Map,
        ErrorKind::Json,
        ErrorKind::Overloaded,
        ErrorKind::Unroutable,
        ErrorKind::DeadlineExceeded,
        ErrorKind::Internal,
    ];

    /// The stable wire name of the kind (lowercase, used in JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Usage => "usage",
            ErrorKind::Io => "io",
            ErrorKind::Parse => "parse",
            ErrorKind::Invalid => "invalid",
            ErrorKind::Estimate => "estimate",
            ErrorKind::Map => "map",
            ErrorKind::Json => "json",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Unroutable => "unroutable",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire name back to a kind.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        Some(match name {
            "usage" => ErrorKind::Usage,
            "io" => ErrorKind::Io,
            "parse" => ErrorKind::Parse,
            "invalid" => ErrorKind::Invalid,
            "estimate" => ErrorKind::Estimate,
            "map" => ErrorKind::Map,
            "json" => ErrorKind::Json,
            "overloaded" => ErrorKind::Overloaded,
            "unroutable" => ErrorKind::Unroutable,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// One error, anywhere in the LEQA stack.
#[derive(Debug, Clone, PartialEq)]
pub struct LeqaError {
    kind: ErrorKind,
    message: String,
    /// Outermost-first context frames added by [`LeqaError::context`].
    context: Vec<String>,
}

impl LeqaError {
    /// Creates an error of the given kind.
    #[must_use]
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        LeqaError {
            kind,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Shorthand for a [`ErrorKind::Usage`] error.
    #[must_use]
    pub fn usage(message: impl Into<String>) -> Self {
        LeqaError::new(ErrorKind::Usage, message)
    }

    /// Shorthand for an [`ErrorKind::Internal`] error.
    #[must_use]
    pub fn internal(message: impl Into<String>) -> Self {
        LeqaError::new(ErrorKind::Internal, message)
    }

    /// Adds an outer context frame ("while loading program `x`").
    /// Frames display outermost first, like an anyhow chain.
    #[must_use]
    pub fn context(mut self, frame: impl Into<String>) -> Self {
        self.context.push(frame.into());
        self
    }

    /// The failure category.
    #[must_use]
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The innermost message, without context frames.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The context frames, outermost first.
    #[must_use]
    pub fn context_frames(&self) -> &[String] {
        &self.context
    }

    /// The stable process exit code for this kind.
    ///
    /// | kind | code |
    /// |---|---|
    /// | `usage` | 2 |
    /// | `io` | 3 |
    /// | `parse` | 4 |
    /// | `invalid` | 5 |
    /// | `estimate` | 6 |
    /// | `map` | 7 |
    /// | `json` | 8 |
    /// | `overloaded` | 9 |
    /// | `unroutable` | 10 |
    /// | `deadline_exceeded` | 12 |
    /// | `internal` | 70 |
    ///
    /// (0 is success; 1 is reserved for failures outside the taxonomy,
    /// e.g. a panic. 11 belonged to a retired kind and stays unassigned.
    /// 70 follows BSD's `EX_SOFTWARE`.)
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self.kind {
            ErrorKind::Usage => 2,
            ErrorKind::Io => 3,
            ErrorKind::Parse => 4,
            ErrorKind::Invalid => 5,
            ErrorKind::Estimate => 6,
            ErrorKind::Map => 7,
            ErrorKind::Json => 8,
            ErrorKind::Overloaded => 9,
            ErrorKind::Unroutable => 10,
            ErrorKind::DeadlineExceeded => 12,
            ErrorKind::Internal => 70,
        }
    }

    /// Serializes the error (kind + message + context) to JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str(self.kind.name())),
            ("message", Json::str(&self.message)),
            (
                "context",
                Json::Arr(self.context.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Decodes an error serialized by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorKind::Json`] error when the document does not
    /// have the error shape.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .and_then(ErrorKind::from_name)
            .ok_or_else(|| LeqaError::new(ErrorKind::Json, "error object needs a known `kind`"))?;
        let message = value
            .get("message")
            .and_then(Json::as_str)
            .ok_or_else(|| LeqaError::new(ErrorKind::Json, "error object needs a `message`"))?
            .to_string();
        let context = match value.get("context") {
            None => Vec::new(),
            Some(ctx) => ctx
                .as_arr()
                .ok_or_else(|| LeqaError::new(ErrorKind::Json, "error `context` must be an array"))?
                .iter()
                .map(|frame| {
                    frame.as_str().map(str::to_string).ok_or_else(|| {
                        LeqaError::new(ErrorKind::Json, "error context frames must be strings")
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(LeqaError {
            kind,
            message,
            context,
        })
    }
}

impl fmt::Display for LeqaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for frame in self.context.iter().rev() {
            write!(f, "{frame}: ")?;
        }
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for LeqaError {}

// ── Conversions from every layer's native error ──────────────────────────

impl From<std::io::Error> for LeqaError {
    fn from(e: std::io::Error) -> Self {
        LeqaError::new(ErrorKind::Io, format!("io error: {e}"))
    }
}

impl From<leqa_circuit::CircuitError> for LeqaError {
    fn from(e: leqa_circuit::CircuitError) -> Self {
        let kind = match &e {
            leqa_circuit::CircuitError::Parse { .. } => ErrorKind::Parse,
            _ => ErrorKind::Invalid,
        };
        LeqaError::new(kind, format!("circuit error: {e}"))
    }
}

impl From<leqa::EstimateError> for LeqaError {
    fn from(e: leqa::EstimateError) -> Self {
        LeqaError::new(ErrorKind::Estimate, format!("estimation error: {e}"))
    }
}

impl From<qspr::MapError> for LeqaError {
    fn from(e: qspr::MapError) -> Self {
        let kind = match &e {
            qspr::MapError::Unroutable { .. } => ErrorKind::Unroutable,
            _ => ErrorKind::Map,
        };
        LeqaError::new(kind, format!("mapping error: {e}"))
    }
}

impl From<leqa_fabric::FabricError> for LeqaError {
    fn from(e: leqa_fabric::FabricError) -> Self {
        LeqaError::new(ErrorKind::Invalid, format!("fabric error: {e}"))
    }
}

impl From<JsonError> for LeqaError {
    fn from(e: JsonError) -> Self {
        LeqaError::new(ErrorKind::Json, format!("json error: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prints_context_outermost_first() {
        let err = LeqaError::new(ErrorKind::Io, "no such file")
            .context("loading program `a.qc`")
            .context("request 3 of 5");
        assert_eq!(
            err.to_string(),
            "request 3 of 5: loading program `a.qc`: no such file"
        );
    }

    #[test]
    fn exit_codes_are_stable_and_distinct() {
        let codes: Vec<u8> = ErrorKind::ALL
            .iter()
            .map(|&k| LeqaError::new(k, "x").exit_code())
            .collect();
        assert_eq!(codes, vec![2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 70]);
    }

    #[test]
    fn wire_names_round_trip() {
        for kind in ErrorKind::ALL {
            assert_eq!(ErrorKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ErrorKind::from_name("nope"), None);
        assert_eq!(ErrorKind::from_name("unavailable"), None, "a retired kind");
    }

    #[test]
    fn json_round_trip() {
        let err = LeqaError::new(ErrorKind::Estimate, "fabric too small").context("batch item 0");
        let back = LeqaError::from_json(&err.to_json()).unwrap();
        assert_eq!(back, err);
    }

    #[test]
    fn layer_errors_map_to_their_kinds() {
        let io: LeqaError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert_eq!(io.kind(), ErrorKind::Io);
        assert!(io.to_string().contains("io error"));

        let est: LeqaError = leqa::EstimateError::FabricTooSmall {
            qubits: 10,
            area: 4,
        }
        .into();
        assert_eq!(est.kind(), ErrorKind::Estimate);
        assert!(est.to_string().contains("cannot be placed"));

        let map: LeqaError = qspr::MapError::FabricTooSmall {
            qubits: 10,
            area: 4,
        }
        .into();
        assert_eq!(map.kind(), ErrorKind::Map);

        let unroutable: LeqaError = qspr::MapError::Unroutable {
            from: leqa_fabric::Ulb::new(0, 0),
            to: leqa_fabric::Ulb::new(3, 3),
        }
        .into();
        assert_eq!(unroutable.kind(), ErrorKind::Unroutable);
        assert_eq!(unroutable.exit_code(), 10);
    }
}
