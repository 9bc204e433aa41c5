//! The device view handed to schedulers at check-in time.

use crate::{Capacity, DeviceId};

/// What a resource manager learns about a device when it checks in.
///
/// Deliberately excludes anything the platform cannot observe up front
/// (actual execution speed, future availability): schedulers must make do
/// with the advertised hardware capacity, exactly as in the paper.
///
/// # Examples
///
/// ```
/// use venn_core::{Capacity, DeviceId, DeviceInfo, ResourceSpec};
///
/// let d = DeviceInfo::new(DeviceId::new(3), Capacity::new(0.7, 0.6));
/// assert!(ResourceSpec::new(0.5, 0.5).is_eligible(d.capacity()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceInfo {
    id: DeviceId,
    capacity: Capacity,
}

impl DeviceInfo {
    /// Creates a device view.
    pub fn new(id: DeviceId, capacity: Capacity) -> Self {
        DeviceInfo { id, capacity }
    }

    /// Device identifier.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Advertised hardware capacity.
    pub fn capacity(&self) -> &Capacity {
        &self.capacity
    }

    /// Scalar hardware score (see [`Capacity::score`]).
    pub(crate) fn score(&self) -> f64 {
        self.capacity.score()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let d = DeviceInfo::new(DeviceId::new(9), Capacity::new(0.4, 0.6));
        assert_eq!(d.id(), DeviceId::new(9));
        assert_eq!(d.capacity().cpu(), 0.4);
        assert_eq!(d.score(), 0.5);
    }
}
