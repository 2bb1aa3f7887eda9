//! Plain (insecure) aggregation baseline.
//!
//! Sums client vectors in `Z_{2^b}` with no masking at all: the sum the
//! plain engine of `dordis_core::trainer::train` releases, which the
//! masked protocol reproduces once its masks cancel.

use std::collections::BTreeMap;

use crate::mask;
use crate::{ClientId, SecAggError};

/// Aggregates vectors in `Z_{2^b}`; all vectors must share a length.
///
/// # Errors
///
/// Fails on empty input or mismatched lengths.
pub fn aggregate(
    inputs: &BTreeMap<ClientId, Vec<u64>>,
    bit_width: u32,
) -> Result<Vec<u64>, SecAggError> {
    let mut iter = inputs.values();
    let first = iter
        .next()
        .ok_or_else(|| SecAggError::Config("no inputs".into()))?;
    let mut sum = vec![0u64; first.len()];
    for v in inputs.values() {
        if v.len() != first.len() {
            return Err(SecAggError::Config("length mismatch".into()));
        }
        mask::add_signed_assign(&mut sum, v, true, bit_width);
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_mod_ring() {
        let mut inputs = BTreeMap::new();
        inputs.insert(0, vec![100u64, (1 << 10) - 1]);
        inputs.insert(1, vec![50u64, 2]);
        let sum = aggregate(&inputs, 10).unwrap();
        assert_eq!(sum, vec![150, 1]);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(aggregate(&BTreeMap::new(), 10).is_err());
        let mut inputs = BTreeMap::new();
        inputs.insert(0, vec![1u64]);
        inputs.insert(1, vec![1u64, 2]);
        assert!(aggregate(&inputs, 10).is_err());
    }
}
