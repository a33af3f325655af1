//! Per-loop buffer arenas and the connection slab.
//!
//! Every connection owned by an event loop needs two staging buffers
//! (inbound bytes to parse, outbound frames to flush). Allocating them
//! per connection — let alone per frame, as the old reader thread's
//! `read_frame` did — would put the allocator on the hot path of every
//! wakeup. The [`Arena`] recycles buffers loop-locally instead: a
//! closed connection's buffers go back to the free list and the next
//! accept reuses them, so a steady-state loop allocates nothing per
//! connection turnover and parses frames *in place* in a buffer it
//! already owns (the codec decodes straight from the read buffer
//! slice; bytes are copied once from the socket and never again).
//!
//! [`Slab`] is the matching index allocator: connections live in a
//! dense `Vec`, freed slots are recycled LIFO, and each slot carries a
//! generation counter so a cross-loop reply addressed to a connection
//! that died (and whose slot was reused) is recognized as stale
//! instead of being delivered to the wrong socket.

/// A loop-local recycler for byte buffers.
pub(crate) struct Arena {
    free: Vec<Vec<u8>>,
    /// Capacity given to fresh buffers (recycled ones keep theirs).
    chunk: usize,
    /// Cap on retained buffers; beyond it, returned buffers are freed.
    max_retained: usize,
    /// Buffers handed out and not yet returned.
    outstanding: usize,
}

impl Arena {
    /// An arena handing out `chunk`-byte buffers, retaining at most
    /// `max_retained` free ones.
    pub(crate) fn new(chunk: usize, max_retained: usize) -> Arena {
        Arena {
            free: Vec::new(),
            chunk: chunk.max(64),
            max_retained,
            outstanding: 0,
        }
    }

    /// Takes a cleared buffer (recycled if available).
    pub(crate) fn get(&mut self) -> Vec<u8> {
        self.outstanding += 1;
        match self.free.pop() {
            Some(mut b) => {
                b.clear();
                b
            }
            None => Vec::with_capacity(self.chunk),
        }
    }

    /// Returns a buffer to the free list. Buffers that ballooned past
    /// 16× the chunk size (one giant frame) are dropped rather than
    /// pinned in the free list forever.
    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.free.len() < self.max_retained && buf.capacity() <= self.chunk * 16 {
            self.free.push(buf);
        }
    }

    /// Buffers currently handed out.
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Buffers parked on the free list.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.free.len()
    }
}

/// A dense slot map with LIFO slot reuse and per-slot generations.
pub(crate) struct Slab<T> {
    slots: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
}

struct Entry<T> {
    gen: u32,
    value: Option<T>,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Inserts a value, returning its `(slot, generation)` address.
    pub(crate) fn insert(&mut self, value: T) -> (u32, u32) {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            let e = &mut self.slots[slot as usize];
            e.value = Some(value);
            (slot, e.gen)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("slab overflow");
            self.slots.push(Entry {
                gen: 0,
                value: Some(value),
            });
            (slot, 0)
        }
    }

    /// Removes a slot's value, bumping its generation so stale
    /// addresses miss.
    pub(crate) fn remove(&mut self, slot: u32) -> Option<T> {
        let e = self.slots.get_mut(slot as usize)?;
        let v = e.value.take();
        if v.is_some() {
            e.gen = e.gen.wrapping_add(1);
            self.free.push(slot);
            self.len -= 1;
        }
        v
    }

    /// The value at `slot`, regardless of generation.
    pub(crate) fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.slots.get_mut(slot as usize)?.value.as_mut()
    }

    /// The value at `slot` only if the generation still matches.
    pub(crate) fn get_mut_gen(&mut self, slot: u32, gen: u32) -> Option<&mut T> {
        let e = self.slots.get_mut(slot as usize)?;
        if e.gen != gen {
            return None;
        }
        e.value.as_mut()
    }

    /// Live slot count.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Iterates over live `(slot, value)` pairs.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, e)| e.value.as_mut().map(|v| (i as u32, v)))
    }

    /// The slots currently live (collected, so the caller can mutate
    /// the slab while walking them).
    pub(crate) fn live_slots(&self) -> Vec<u32> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.value.as_ref().map(|_| i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_recycles_and_caps_retention() {
        let mut a = Arena::new(1024, 2);
        let b1 = a.get();
        let b2 = a.get();
        let b3 = a.get();
        assert_eq!(a.outstanding(), 3);
        let p1 = b1.as_ptr();
        a.put(b1);
        a.put(b2);
        a.put(b3); // beyond max_retained: dropped
        assert_eq!(a.retained(), 2);
        assert_eq!(a.outstanding(), 0);
        // LIFO reuse: the most recently returned buffer comes back
        // first; the first returned (p1) is still parked below it.
        let r1 = a.get();
        let r2 = a.get();
        assert!(r1.capacity() >= 1024 && r2.capacity() >= 1024);
        assert_eq!(r2.as_ptr(), p1);
        // A buffer that ballooned is not retained.
        let mut big = a.get();
        big.reserve(1024 * 64);
        a.put(big);
        assert_eq!(a.retained(), 0);
    }

    #[test]
    fn slab_generations_catch_stale_addresses() {
        let mut s: Slab<&'static str> = Slab::new();
        let (slot, gen) = s.insert("alpha");
        assert_eq!(s.get_mut_gen(slot, gen), Some(&mut "alpha"));
        assert_eq!(s.remove(slot), Some("alpha"));
        assert_eq!(s.remove(slot), None, "double remove is inert");
        let (slot2, gen2) = s.insert("beta");
        assert_eq!(slot2, slot, "slots are recycled");
        assert_ne!(gen2, gen, "generation moved on");
        assert_eq!(s.get_mut_gen(slot, gen), None, "stale address misses");
        assert_eq!(s.get_mut_gen(slot, gen2), Some(&mut "beta"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.live_slots(), vec![slot]);
        for (i, v) in s.iter_mut() {
            assert_eq!((i, *v), (slot, "beta"));
        }
    }
}
