//! A return address stack augmented with way predictions (Section 2.3).
//!
//! "For function returns, we augment the return address stack (RAS) to
//! provide not only the return address but also the return address's way."

use wp_mem::{Addr, WayIndex};

/// A bounded return address stack whose entries carry the i-cache way of the
/// return target.
///
/// When the stack overflows, the oldest entry is discarded (as in real
/// hardware); when it underflows, [`ReturnAddressStack::pop`] returns `None`
/// and the fetch falls back to a parallel access.
///
/// # Example
///
/// ```
/// use wp_predictors::ReturnAddressStack;
///
/// let mut ras = ReturnAddressStack::new(8);
/// ras.push(0x40_0104, Some(2));
/// assert_eq!(ras.pop(), Some((0x40_0104, Some(2))));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: Vec<(Addr, Option<WayIndex>)>,
    capacity: usize,
}

impl ReturnAddressStack {
    /// Creates a stack with room for `capacity` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS capacity must be non-zero");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the stack holds no return addresses.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pushes the return address of a call, with the predicted i-cache way
    /// of the return target if known.
    pub fn push(&mut self, return_addr: Addr, way: Option<WayIndex>) {
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((return_addr, way));
    }

    /// Pops the most recent return address and its way prediction, or `None`
    /// if the stack is empty.
    pub fn pop(&mut self) -> Option<(Addr, Option<WayIndex>)> {
        self.entries.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(0x100, Some(0));
        ras.push(0x200, Some(1));
        assert_eq!(ras.pop(), Some((0x200, Some(1))));
        assert_eq!(ras.pop(), Some((0x100, Some(0))));
    }

    #[test]
    fn overflow_discards_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(0x100, None);
        ras.push(0x200, None);
        ras.push(0x300, None);
        assert_eq!(ras.pop(), Some((0x300, None)));
        assert_eq!(ras.pop(), Some((0x200, None)));
        assert_eq!(ras.pop(), None, "0x100 was discarded");
    }

    #[test]
    fn underflow_is_counted() {
        let mut ras = ReturnAddressStack::new(2);
        assert_eq!(ras.pop(), None);
        // An underflow leaves the stack usable.
        ras.push(0x100, Some(1));
        assert_eq!(ras.pop(), Some((0x100, Some(1))));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = ReturnAddressStack::new(0);
    }
}
