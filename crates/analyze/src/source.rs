//! Source-file handling: loading, byte-offset → line/column mapping, and
//! the repo-relative paths diagnostics are reported against.

use std::path::{Path, PathBuf};

/// One loaded source file with a precomputed line index.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the analysis root, with `/` separators — the
    /// stable form used in diagnostics and scopes.
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Full file contents.
    pub text: String,
    /// Byte offset of the start of each line (line 1 starts at offset 0).
    line_starts: Vec<usize>,
}

/// A 1-based line/column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in bytes; the sources are ASCII-dominated).
    pub col: u32,
}

impl SourceFile {
    /// Loads `abs` and remembers it under the repo-relative `rel`.
    pub fn load(root: &Path, abs: &Path) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(abs)?;
        Ok(SourceFile::from_text(root, abs, text))
    }

    /// Builds a source file from already-read text (used by the fixture
    /// tests to analyze in-memory snippets).
    pub fn from_text(root: &Path, abs: &Path, text: String) -> SourceFile {
        let rel = abs
            .strip_prefix(root)
            .unwrap_or(abs)
            .to_string_lossy()
            .replace('\\', "/");
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceFile {
            rel_path: rel,
            abs_path: abs.to_path_buf(),
            text,
            line_starts,
        }
    }

    /// The 1-based line/column of a byte offset.
    pub fn pos(&self, offset: usize) -> Pos {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Pos {
            line: (line + 1) as u32,
            col: (offset - self.line_starts[line] + 1) as u32,
        }
    }

    /// The 1-based line of a byte offset.
    pub fn line_of(&self, offset: usize) -> u32 {
        self.pos(offset).line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_are_one_based() {
        let f = SourceFile::from_text(
            Path::new("/r"),
            Path::new("/r/a.rs"),
            "ab\ncd\n".to_string(),
        );
        assert_eq!(f.rel_path, "a.rs");
        assert_eq!(f.pos(0), Pos { line: 1, col: 1 });
        assert_eq!(f.pos(1), Pos { line: 1, col: 2 });
        assert_eq!(f.pos(3), Pos { line: 2, col: 1 });
        assert_eq!(f.pos(5), Pos { line: 2, col: 3 });
    }
}
