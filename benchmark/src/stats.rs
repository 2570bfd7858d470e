//! Order statistics over a handful of repetitions.

/// Median of `values` (mean of the middle two for an even count). Sorts in
/// place.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median, minimum, maximum and sample count of one metric across the
/// repetitions of a run.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Spread {
    pub fn of(mut values: Vec<f64>) -> Spread {
        let median = median(&mut values);
        Spread {
            median,
            min: values[0],
            max: values[values.len() - 1],
            samples: values.len(),
        }
    }
}
