//! A vector stored as fixed-size `Arc` pages, copy-on-write per page.
//!
//! Cloning a [`PagedVec`] copies only its page-pointer vector (one refcount
//! bump per page). A later write unshares just the page it lands in
//! (`Arc::make_mut`), so a clone that writes `k` elements costs
//! O(len / [`PAGE_SLOTS`] + k · [`PAGE_SLOTS`]) instead of O(len). Table row
//! slots and MVCC per-row commit clocks both live on this type.

use std::sync::Arc;

/// Elements per page.
pub const PAGE_SLOTS: usize = 64;

/// Growable vector of `T` in `Arc`-shared pages of [`PAGE_SLOTS`] elements.
/// Every page but the last is full.
#[derive(Debug, Clone)]
pub struct PagedVec<T> {
    pages: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        PagedVec {
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> PagedVec<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.pages.get(i / PAGE_SLOTS)?.get(i % PAGE_SLOTS)
    }

    /// Mutable element `i`, unsharing its page first if another clone
    /// still holds it.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let page = self.pages.get_mut(i / PAGE_SLOTS)?;
        Arc::make_mut(page).get_mut(i % PAGE_SLOTS)
    }

    /// Append an element, opening a new page when the last one is full.
    pub fn push(&mut self, value: T) {
        if self.len.is_multiple_of(PAGE_SLOTS) {
            self.pages.push(Arc::new(Vec::with_capacity(PAGE_SLOTS)));
        }
        let last = self.pages.last_mut().expect("page just ensured");
        Arc::make_mut(last).push(value);
        self.len += 1;
    }

    /// Grow to at least `len` elements, padding with `fill`. Never shrinks.
    pub fn grow_to(&mut self, len: usize, fill: T) {
        while self.len < len {
            self.push(fill.clone());
        }
    }

    /// Iterate over all elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|page| page.iter())
    }

    /// `(pages shared with other, pages in self)`: how many of this
    /// vector's pages are the very same allocation as `other`'s page at the
    /// same position.
    #[cfg(test)]
    pub(crate) fn shared_pages(&self, other: &Self) -> (usize, usize) {
        let shared = self
            .pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (shared, self.pages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_and_page_boundaries() {
        let mut v = PagedVec::default();
        for i in 0..(3 * PAGE_SLOTS + 5) {
            v.push(i);
        }
        assert_eq!(v.len(), 3 * PAGE_SLOTS + 5);
        assert_eq!(v.get(PAGE_SLOTS), Some(&PAGE_SLOTS));
        assert_eq!(v.get(v.len()), None);
        assert!(v.iter().copied().eq(0..v.len()));
        v.grow_to(4 * PAGE_SLOTS + 1, 0);
        assert_eq!(v.len(), 4 * PAGE_SLOTS + 1);
        assert_eq!(v.get(4 * PAGE_SLOTS), Some(&0));
    }

    #[test]
    fn clone_then_write_unshares_one_page() {
        let mut a = PagedVec::default();
        for i in 0..(4 * PAGE_SLOTS) {
            a.push(i);
        }
        let mut b = a.clone();
        *b.get_mut(PAGE_SLOTS + 3).unwrap() = 999;
        assert_eq!(a.get(PAGE_SLOTS + 3), Some(&(PAGE_SLOTS + 3)));
        assert_eq!(b.get(PAGE_SLOTS + 3), Some(&999));
        assert_eq!(b.shared_pages(&a), (3, 4));
        b.push(7);
        assert_eq!(a.len(), 4 * PAGE_SLOTS);
        assert_eq!(b.shared_pages(&a), (3, 5));
    }
}
