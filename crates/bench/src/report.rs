//! Plain-text table formatting shared by the experiment reports.

/// Render a table: a header row followed by data rows, columns padded to
/// the widest cell. Returns the formatted block (trailing newline
/// included).
pub fn table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let emit_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        out.push('\n');
    };
    emit_row(&mut out, header);
    let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        emit_row(&mut out, row);
    }
    out
}

/// Format a float with two decimals (the paper's speedup precision).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with one decimal (cycle counts).
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_align() {
        let t = table(
            &["name".into(), "value".into()],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer".into(), "12.34".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.00"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        table(&["a".into()], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn float_formats() {
        assert_eq!(f2(3.856), "3.86");
        assert_eq!(f1(128.04), "128.0");
    }
}
