//! Error type for the key-value store.

use std::fmt;
use std::io;

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, KvError>;

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum KvError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A persisted structure failed its checksum or layout validation.
    Corruption {
        /// What was being read.
        context: String,
    },
    /// An SSTable was written in a format this build does not read (its
    /// footer is intact but carries another version). There is one reader:
    /// such a table is refused, never interpreted.
    UnsupportedFormat {
        /// Version byte found in the footer.
        found: u8,
        /// The version this build reads and writes.
        supported: u8,
    },
    /// The store was opened or used in an invalid way.
    InvalidUsage {
        /// Explanation of the misuse.
        message: String,
    },
}

impl KvError {
    pub(crate) fn corruption(context: impl Into<String>) -> Self {
        KvError::Corruption { context: context.into() }
    }

    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        KvError::InvalidUsage { message: message.into() }
    }
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Io(e) => write!(f, "I/O error: {e}"),
            KvError::Corruption { context } => write!(f, "corruption detected: {context}"),
            KvError::UnsupportedFormat { found, supported } => write!(
                f,
                "unsupported sstable format version {found} (this build reads version {supported})"
            ),
            KvError::InvalidUsage { message } => write!(f, "invalid usage: {message}"),
        }
    }
}

impl std::error::Error for KvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for KvError {
    fn from(e: io::Error) -> Self {
        KvError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = KvError::corruption("bad block");
        assert!(e.to_string().contains("bad block"));
        let e = KvError::invalid("reopened");
        assert!(e.to_string().contains("reopened"));
        let e = KvError::UnsupportedFormat { found: 66, supported: 2 };
        assert!(e.to_string().contains("version 66"));
        let e: KvError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
    }
}
