//! The `--flag value` parser the command-line binaries share.

/// The arguments not yet taken, in order. Every `take*` removes what it
/// reads, so [`Flags::ensure_empty`] names whatever nobody asked for.
pub struct Flags(Vec<String>);

impl Flags {
    /// Wrap the arguments after the program name (and sub-command).
    pub fn new(args: Vec<String>) -> Self {
        Flags(args)
    }

    /// The value after `name`, or `None` when `name` is absent or has no
    /// value after it (a trailing flag is left in place).
    pub fn take(&mut self, name: &str) -> Option<String> {
        let pos = self.0.iter().position(|a| a == name)?;
        if pos + 1 >= self.0.len() {
            return None;
        }
        let value = self.0.remove(pos + 1);
        self.0.remove(pos);
        Some(value)
    }

    /// [`Flags::take`], parsed; `default` when the flag is absent.
    pub fn take_parsed<T: std::str::FromStr>(
        &mut self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.take(name) {
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
            None => Ok(default),
        }
    }

    /// Whether the value-less switch `name` was given.
    pub fn take_flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(pos) => {
                self.0.remove(pos);
                true
            }
            None => false,
        }
    }

    /// An error naming every argument nothing took.
    pub fn ensure_empty(&self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognized arguments: {:?}", self.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn each_take_removes_what_it_reads_and_the_rest_is_reported() {
        let mut f = flags(&["--rows", "64", "--smoke", "--out", "x.json", "--seed"]);
        assert_eq!(f.take_parsed("--rows", 0u32), Ok(64));
        assert_eq!(f.take_parsed("--states", 7u32), Ok(7));
        assert!(f.take_flag("--smoke"));
        assert!(!f.take_flag("--smoke"));
        assert_eq!(f.take("--out").as_deref(), Some("x.json"));
        assert_eq!(f.take("--out"), None);
        // A trailing flag has no value: `take` leaves it for `ensure_empty`.
        assert_eq!(f.take("--seed"), None);
        assert_eq!(
            f.ensure_empty(),
            Err(r#"unrecognized arguments: ["--seed"]"#.to_owned())
        );
        assert_eq!(f.take_parsed("--seed", 3u64), Ok(3));
        assert!(f.take_flag("--seed"));
        assert_eq!(f.ensure_empty(), Ok(()));

        let mut bad = flags(&["--rows", "many"]);
        assert_eq!(
            bad.take_parsed("--rows", 0u32),
            Err("bad value for --rows: many".to_owned())
        );
        assert_eq!(bad.ensure_empty(), Ok(()));
    }
}
