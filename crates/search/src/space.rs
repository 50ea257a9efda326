//! Typed parameter domains and configurations.

use std::collections::BTreeMap;
use std::fmt;

use rand::Rng;

/// A sampled parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Integer-valued parameter (batch size, epochs, cores…).
    Int(i64),
    /// Real-valued parameter (learning rate, dropout…).
    Float(f64),
}

impl ParamValue {
    /// The value as an integer, truncating floats.
    pub fn as_i64(&self) -> i64 {
        match *self {
            ParamValue::Int(v) => v,
            ParamValue::Float(v) => v as i64,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> f64 {
        match *self {
            ParamValue::Int(v) => v as f64,
            ParamValue::Float(v) => v,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v:.4}"),
        }
    }
}

/// One parameter's domain.
#[derive(Debug, Clone, PartialEq)]
enum Domain {
    /// Continuous range; `log` scales sampling logarithmically (learning
    /// rates).
    FloatRange {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
        /// Sample on a log scale.
        log: bool,
    },
    /// Integer range, inclusive.
    IntRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Finite set of integer choices (e.g. batch sizes 32/64/256/1024).
    IntChoice(Vec<i64>),
    /// Finite set of float choices.
    FloatChoice(Vec<f64>),
}

/// A named parameter with a domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    name: String,
    domain: Domain,
}

impl ParamSpec {
    /// A continuous range parameter.
    pub fn float_range(name: impl Into<String>, lo: f64, hi: f64, log: bool) -> Self {
        ParamSpec { name: name.into(), domain: Domain::FloatRange { lo, hi, log } }
    }

    /// An inclusive integer range parameter.
    pub fn int_range(name: impl Into<String>, lo: i64, hi: i64) -> Self {
        ParamSpec { name: name.into(), domain: Domain::IntRange { lo, hi } }
    }

    /// A finite integer choice parameter.
    pub fn int_choice(name: impl Into<String>, values: &[i64]) -> Self {
        ParamSpec { name: name.into(), domain: Domain::IntChoice(values.to_vec()) }
    }

    /// A finite float choice parameter.
    pub fn float_choice(name: impl Into<String>, values: &[f64]) -> Self {
        ParamSpec { name: name.into(), domain: Domain::FloatChoice(values.to_vec()) }
    }

    /// Whether the domain holds at least one value.
    fn is_valid(&self) -> bool {
        match &self.domain {
            Domain::FloatRange { lo, hi, log } => {
                lo.is_finite() && hi.is_finite() && lo <= hi && (!log || *lo > 0.0)
            }
            Domain::IntRange { lo, hi } => lo <= hi,
            Domain::IntChoice(v) => !v.is_empty(),
            Domain::FloatChoice(v) => !v.is_empty(),
        }
    }

    /// Samples one value uniformly (log-uniformly for log ranges).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> ParamValue {
        match &self.domain {
            Domain::FloatRange { lo, hi, log } => {
                if *log {
                    let v = rng.gen_range(lo.ln()..=hi.ln()).exp();
                    ParamValue::Float(v)
                } else {
                    ParamValue::Float(rng.gen_range(*lo..=*hi))
                }
            }
            Domain::IntRange { lo, hi } => ParamValue::Int(rng.gen_range(*lo..=*hi)),
            Domain::IntChoice(v) => ParamValue::Int(v[rng.gen_range(0..v.len())]),
            Domain::FloatChoice(v) => ParamValue::Float(v[rng.gen_range(0..v.len())]),
        }
    }

    /// Representative grid values for grid search: choices enumerate fully;
    /// ranges are discretised into `per_param` points (log-spaced where
    /// configured).
    fn grid_values(&self, per_param: usize) -> Vec<ParamValue> {
        let n = per_param.max(1);
        match &self.domain {
            Domain::IntChoice(v) => v.iter().map(|&x| ParamValue::Int(x)).collect(),
            Domain::FloatChoice(v) => v.iter().map(|&x| ParamValue::Float(x)).collect(),
            Domain::IntRange { lo, hi } => {
                if n == 1 {
                    return vec![ParamValue::Int((lo + hi) / 2)];
                }
                (0..n)
                    .map(|i| {
                        let t = i as f64 / (n - 1) as f64;
                        ParamValue::Int(lo + ((hi - lo) as f64 * t).round() as i64)
                    })
                    .collect()
            }
            Domain::FloatRange { lo, hi, log } => {
                if n == 1 {
                    return vec![ParamValue::Float(if *log {
                        (lo.ln() + (hi / lo).ln() / 2.0).exp()
                    } else {
                        (lo + hi) / 2.0
                    })];
                }
                (0..n)
                    .map(|i| {
                        let t = i as f64 / (n - 1) as f64;
                        let v = if *log {
                            (lo.ln() + (hi.ln() - lo.ln()) * t).exp()
                        } else {
                            lo + (hi - lo) * t
                        };
                        ParamValue::Float(v)
                    })
                    .collect()
            }
        }
    }
}

/// A parameter assignment: one point in the search space.
pub type Config = BTreeMap<String, ParamValue>;

/// A set of parameters to optimise over.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    params: Vec<ParamSpec>,
}

impl SearchSpace {
    /// Builds a space; invalid domains panic early (they are programmer
    /// errors in experiment definitions).
    ///
    /// # Panics
    ///
    /// Panics when a parameter domain is empty or inverted.
    pub fn new(params: Vec<ParamSpec>) -> Self {
        for p in &params {
            assert!(p.is_valid(), "search-space domains must be non-empty: {}", p.name);
        }
        SearchSpace { params }
    }

    /// Samples one full configuration.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Config {
        self.params.iter().map(|p| (p.name.clone(), p.sample(rng))).collect()
    }

    /// Full Cartesian grid with `per_param` points per ranged parameter.
    ///
    /// Grows exponentially in the parameter count — exactly the blow-up
    /// Fig. 1 demonstrates.
    pub fn grid(&self, per_param: usize) -> Vec<Config> {
        let mut configs: Vec<Config> = vec![Config::new()];
        for p in &self.params {
            let values = p.grid_values(per_param);
            let mut next = Vec::with_capacity(configs.len() * values.len());
            for c in &configs {
                for v in &values {
                    let mut c2 = c.clone();
                    c2.insert(p.name.clone(), v.clone());
                    next.push(c2);
                }
            }
            configs = next;
        }
        configs
    }

    /// Merges `other`'s parameters into this space (used by Tune V2 to fold
    /// system parameters into the hyperparameter space).
    pub fn union(&self, other: &SearchSpace) -> SearchSpace {
        let mut params = self.params.clone();
        params.extend(other.params.iter().cloned());
        SearchSpace { params }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![
            ParamSpec::float_range("lr", 0.001, 0.1, true),
            ParamSpec::int_choice("batch", &[32, 64, 256, 1024]),
            ParamSpec::int_range("epochs", 10, 100),
        ])
    }

    #[test]
    fn samples_stay_in_domain() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let c = s.sample(&mut rng);
            let lr = c["lr"].as_f64();
            assert!((0.001..=0.1).contains(&lr), "lr {lr}");
            assert!([32, 64, 256, 1024].contains(&c["batch"].as_i64()));
            let e = c["epochs"].as_i64();
            assert!((10..=100).contains(&e));
        }
    }

    #[test]
    fn log_sampling_covers_low_decades() {
        let s = SearchSpace::new(vec![ParamSpec::float_range("lr", 0.001, 0.1, true)]);
        let mut rng = StdRng::seed_from_u64(2);
        let low = (0..500).filter(|_| s.sample(&mut rng)["lr"].as_f64() < 0.01).count();
        // Log-uniform → half the samples below the geometric midpoint 0.01.
        assert!((150..350).contains(&low), "low-decade count {low}");
    }

    #[test]
    fn grid_size_is_exponential_in_params() {
        let s = space();
        assert_eq!(s.grid(3).len(), 3 * 4 * 3); // ranges→3, choice→4
        let one = SearchSpace::new(vec![ParamSpec::int_range("x", 0, 9)]);
        assert_eq!(one.grid(3).len(), 3);
    }

    #[test]
    fn grid_values_hit_bounds() {
        let p = ParamSpec::int_range("x", 0, 10);
        let vals = p.grid_values(3);
        assert_eq!(vals[0].as_i64(), 0);
        assert_eq!(vals[2].as_i64(), 10);
    }

    #[test]
    fn union_concatenates_params() {
        let a = space();
        let b = SearchSpace::new(vec![ParamSpec::int_choice("cores", &[4, 8, 16])]);
        let u = a.union(&b);
        assert_eq!(u.params.len(), 4);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(u.sample(&mut rng).contains_key("cores"));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_choice_panics() {
        let _ = SearchSpace::new(vec![ParamSpec::int_choice("x", &[])]);
    }
}
