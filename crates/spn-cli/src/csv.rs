//! Minimal CSV input for byte-valued sample matrices.
//!
//! The CLI reads datasets as plain integer CSV (one sample per line,
//! one feature per column) — the least surprising format for SPFlow
//! users. No quoting or escaping: values are bytes.

use spn_core::Dataset;

/// Parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CSV line {}: {}", self.line, self.message)
    }
}
impl std::error::Error for CsvError {}

/// Parse CSV text into a dataset. `domain` bounds the values; rows must
/// be rectangular. Empty lines are skipped.
pub fn parse_csv(text: &str, domain: usize) -> Result<Dataset, CsvError> {
    let mut data: Vec<u8> = Vec::new();
    let mut width: Option<usize> = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut count = 0usize;
        for field in line.split(',') {
            let v: u16 = field.trim().parse().map_err(|e| CsvError {
                line: i + 1,
                message: format!("invalid value '{}': {e}", field.trim()),
            })?;
            if v as usize >= domain {
                return Err(CsvError {
                    line: i + 1,
                    message: format!("value {v} out of domain 0..{domain}"),
                });
            }
            data.push(v as u8);
            count += 1;
        }
        match width {
            None => width = Some(count),
            Some(w) if w != count => {
                return Err(CsvError {
                    line: i + 1,
                    message: format!("expected {w} columns, found {count}"),
                })
            }
            _ => {}
        }
    }
    let width = width.ok_or(CsvError {
        line: 0,
        message: "no data rows".into(),
    })?;
    Ok(Dataset::from_raw(data, width, domain))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text's values come back as the dataset's row-major bytes.
    #[test]
    fn round_trip() {
        let text = "1,2,3\n4,5,6\n";
        let d = parse_csv(text, 16).unwrap();
        assert_eq!(d.num_samples(), 2);
        assert_eq!(d.num_features(), 3);
        assert_eq!(d.raw(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn whitespace_and_blank_lines_tolerated() {
        let d = parse_csv(" 1 , 2 \n\n3,4\n", 8).unwrap();
        assert_eq!(d.num_samples(), 2);
        assert_eq!(d.row(1), &[3, 4]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_csv("1,2\nx,4\n", 8).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("invalid value"));
        let e = parse_csv("1,2\n3\n", 8).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("columns"));
        let e = parse_csv("1,9\n", 8).unwrap_err();
        assert!(e.message.contains("domain"));
        let e = parse_csv("\n\n", 8).unwrap_err();
        assert!(e.message.contains("no data"));
    }
}
