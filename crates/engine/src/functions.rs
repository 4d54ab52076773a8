//! The scalar function registry.
//!
//! Activity templates name their functions symbolically (`$2€` is
//! `dollar2euro`); the registry maps those names to executable code. The
//! builtin set covers the paper's running example plus common ETL
//! transforms; users register their own with [`FunctionRegistry::register`].
//!
//! Functions used in workflows subject to optimization should be
//! deterministic; those declared `injective: true` at the template level
//! must actually be injective, or the engine-level equivalence checks the
//! optimizer relies on will not hold.

use std::collections::BTreeMap;
use std::sync::Arc;

use etlopt_core::scalar::Scalar;

use crate::error::{EngineError, Result};

/// An executable scalar function: argument values in, one value out.
pub type ScalarFn = Arc<dyn Fn(&[Scalar]) -> Result<Scalar> + Send + Sync>;

/// Name → implementation map for scalar functions.
#[derive(Clone)]
pub struct FunctionRegistry {
    fns: BTreeMap<String, ScalarFn>,
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionRegistry")
            .field("functions", &self.fns.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

fn numeric(name: &str, v: &Scalar) -> Result<f64> {
    v.as_f64().ok_or_else(|| EngineError::FunctionFailed {
        function: name.to_owned(),
        reason: format!("expected numeric argument, got {v}"),
    })
}

impl FunctionRegistry {
    /// The builtin function set.
    pub fn builtin() -> Self {
        let mut r = FunctionRegistry {
            fns: BTreeMap::new(),
        };
        // The paper's $2€: Dollars to Euros at a fixed deterministic rate.
        // Linear and strictly monotonic, hence injective.
        r.register("dollar2euro", |args| {
            let v = &args[0];
            if v.is_null() {
                return Ok(Scalar::Null);
            }
            Ok(Scalar::Float(numeric("dollar2euro", v)? * 0.92))
        });
        r.register("euro2dollar", |args| {
            let v = &args[0];
            if v.is_null() {
                return Ok(Scalar::Null);
            }
            Ok(Scalar::Float(numeric("euro2dollar", v)? / 0.92))
        });
        // The paper's A2E: American to European date *format*. Dates are
        // canonical day counts internally, so the value transform is the
        // identity; string-typed dates are rewritten MM/DD/YYYY→DD/MM/YYYY.
        r.register("am2eu", |args| match &args[0] {
            Scalar::Str(s) => {
                let parts: Vec<&str> = s.split('/').collect();
                if parts.len() == 3 {
                    Ok(Scalar::Str(format!(
                        "{}/{}/{}",
                        parts[1], parts[0], parts[2]
                    )))
                } else {
                    Ok(args[0].clone())
                }
            }
            other => Ok(other.clone()),
        });
        r.register("eu2am", |args| match &args[0] {
            Scalar::Str(s) => {
                let parts: Vec<&str> = s.split('/').collect();
                if parts.len() == 3 {
                    Ok(Scalar::Str(format!(
                        "{}/{}/{}",
                        parts[1], parts[0], parts[2]
                    )))
                } else {
                    Ok(args[0].clone())
                }
            }
            other => Ok(other.clone()),
        });
        r.register("uppercase", |args| match &args[0] {
            Scalar::Str(s) => Ok(Scalar::Str(s.to_uppercase())),
            other => Ok(other.clone()),
        });
        r.register("trim", |args| match &args[0] {
            Scalar::Str(s) => Ok(Scalar::Str(s.trim().to_owned())),
            other => Ok(other.clone()),
        });
        r.register("negate", |args| {
            let v = &args[0];
            if v.is_null() {
                return Ok(Scalar::Null);
            }
            Ok(Scalar::Float(-numeric("negate", v)?))
        });
        r.register("concat", |args| {
            let mut out = String::new();
            for a in args {
                match a {
                    Scalar::Str(s) => out.push_str(s),
                    Scalar::Null => {}
                    other => out.push_str(&other.to_string()),
                }
            }
            Ok(Scalar::Str(out))
        });
        // Format canonicalization: the identity on values (like `am2eu` on
        // canonical dates). The entity-preserving in-place transform that
        // generated workloads use — costs a scan, changes nothing.
        r.register("normalize", |args| Ok(args[0].clone()));
        // Generic in-place linear rescale; injective but NOT
        // entity-preserving — use with a renamed output attribute.
        r.register("scale", |args| {
            let v = &args[0];
            if v.is_null() {
                return Ok(Scalar::Null);
            }
            Ok(Scalar::Float(numeric("scale", v)? * 1.1))
        });
        // A deliberately NON-injective transform for negative tests.
        r.register("bucket10", |args| {
            let v = &args[0];
            if v.is_null() {
                return Ok(Scalar::Null);
            }
            Ok(Scalar::Int((numeric("bucket10", v)? / 10.0).floor() as i64))
        });
        r
    }

    /// Register (or replace) a function.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&[Scalar]) -> Result<Scalar> + Send + Sync + 'static,
    ) {
        self.fns.insert(name.into(), Arc::new(f));
    }

    /// Invoke a function.
    pub fn call(&self, name: &str, args: &[Scalar]) -> Result<Scalar> {
        let f = self
            .fns
            .get(name)
            .ok_or_else(|| EngineError::UnknownFunction(name.to_owned()))?;
        f(args)
    }

    /// The implementation registered under `name`, for callers that invoke
    /// it many times (a compiled kernel resolves once per pipeline).
    pub fn resolve(&self, name: &str) -> Option<ScalarFn> {
        self.fns.get(name).cloned()
    }

    /// Is `name` registered?
    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> FunctionRegistry {
        FunctionRegistry::builtin()
    }

    #[test]
    fn dollar2euro_is_linear_and_null_safe() {
        let r = reg();
        assert_eq!(
            r.call("dollar2euro", &[Scalar::Float(100.0)]).unwrap(),
            Scalar::Float(92.0)
        );
        assert_eq!(
            r.call("dollar2euro", &[Scalar::Null]).unwrap(),
            Scalar::Null
        );
        assert!(r.call("dollar2euro", &[Scalar::from("x")]).is_err());
    }

    #[test]
    fn am2eu_flips_string_dates_and_is_identity_on_canonical() {
        let r = reg();
        assert_eq!(
            r.call("am2eu", &[Scalar::from("12/31/2004")]).unwrap(),
            Scalar::from("31/12/2004")
        );
        assert_eq!(
            r.call("am2eu", &[Scalar::Date(100)]).unwrap(),
            Scalar::Date(100)
        );
        // eu2am inverts am2eu on strings.
        let eu = r.call("am2eu", &[Scalar::from("12/31/2004")]).unwrap();
        assert_eq!(r.call("eu2am", &[eu]).unwrap(), Scalar::from("12/31/2004"));
    }

    #[test]
    fn unknown_function_is_reported() {
        assert!(matches!(
            reg().call("nope", &[]).unwrap_err(),
            EngineError::UnknownFunction(_)
        ));
    }

    #[test]
    fn custom_registration() {
        let mut r = reg();
        r.register("double", |args| {
            Ok(Scalar::Float(args[0].as_f64().unwrap_or(0.0) * 2.0))
        });
        assert!(r.contains("double"));
        assert_eq!(
            r.call("double", &[Scalar::Int(4)]).unwrap(),
            Scalar::Float(8.0)
        );
    }

    #[test]
    fn bucket10_is_non_injective() {
        let r = reg();
        assert_eq!(
            r.call("bucket10", &[Scalar::Int(11)]).unwrap(),
            r.call("bucket10", &[Scalar::Int(19)]).unwrap()
        );
    }

    #[test]
    fn concat_joins_values() {
        let r = reg();
        assert_eq!(
            r.call("concat", &[Scalar::from("a"), Scalar::Int(1), Scalar::Null])
                .unwrap(),
            Scalar::from("a1")
        );
    }
}
