//! Shadow tags: one run that proves its `doall` loops order-independent.
//!
//! See the module docs of [`crate::interp`] for the conflict rule and its
//! soundness argument. This module holds the tag store and the rule; the
//! executor calls it on every access while a shadowed run is watching.

/// Tags of one array cell: its last write and its last recorded read.
#[derive(Debug, Clone, Copy, Default)]
struct CellTag {
    w: u32,
    r: u32,
}

/// Tags of one scalar slot.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct SlotTag {
    /// Last write.
    w: u32,
    /// The exposed-read record: the tag of a read that saw a value
    /// written outside its own iteration ...
    x: u32,
    /// ... and the write that value came from (the minimum over merged
    /// reads), which says for which frames the read was exposed.
    xw: u32,
    /// Bit `d`: two iterations of the active frame at depth `d` wrote
    /// the slot.
    poison: u64,
    /// The slot's value is the last write of a `doall` that wrote it
    /// from several iterations and has exited: reading it is a conflict.
    dead: bool,
}

/// One active `doall` instance: the tag counter at its start and the tag
/// of its current iteration. Tags in `(inst, iter)` belong to earlier
/// iterations of this instance.
#[derive(Debug, Clone, Copy)]
struct Frame {
    inst: u32,
    iter: u32,
    /// Some slot carries this frame's poison bit.
    poisoned: bool,
}

/// Where a tag lies relative to the active frames.
enum Place {
    /// Before every active instance, or in no frame at all.
    Before,
    /// In an earlier iteration of frame `d`.
    Earlier(usize),
    /// In the current iteration of frame `d` (and of every outer frame),
    /// before frame `d + 1` began.
    Current(usize),
}

/// The shadow state of one run. It only ever turns a run's verdict from
/// "order-independent" to "conflict"; it never touches values, stats or
/// errors.
#[derive(Debug)]
pub(super) struct Shadow {
    /// The last tag issued; every `doall` iteration gets a fresh one.
    now: u32,
    /// Tag of the innermost active iteration, 0 outside every `doall`:
    /// an access whose tags are all at least this is conflict-free.
    cur: u32,
    frames: Vec<Frame>,
    cells: Vec<Vec<CellTag>>,
    slots: Vec<SlotTag>,
    /// A conflict was seen: the verdict is final.
    pub(super) conflict: bool,
}

impl Shadow {
    /// Fresh tags for arrays of the given lengths (by lowered id) and
    /// `slots` scalar slots.
    pub(super) fn new(array_lens: impl Iterator<Item = usize>, slots: usize) -> Shadow {
        Shadow {
            now: 0,
            cur: 0,
            frames: Vec::new(),
            cells: array_lens.map(|n| vec![CellTag::default(); n]).collect(),
            slots: vec![SlotTag::default(); slots],
            conflict: false,
        }
    }

    fn place(&self, t: u32) -> Place {
        for (d, f) in self.frames.iter().enumerate().rev() {
            if t >= f.iter {
                return Place::Current(d);
            }
            if t > f.inst {
                return Place::Earlier(d);
            }
        }
        Place::Before
    }

    fn earlier(&self, t: u32) -> bool {
        matches!(self.place(t), Place::Earlier(_))
    }

    /// A `doall` instance begins.
    pub(super) fn enter(&mut self) {
        self.frames.push(Frame {
            inst: self.now,
            iter: self.now,
            poisoned: false,
        });
    }

    /// The innermost instance starts its next iteration.
    pub(super) fn next_iteration(&mut self) {
        let Some(next) = self.now.checked_add(1) else {
            // Out of tags: give up rather than alias two iterations.
            self.conflict = true;
            return;
        };
        self.now = next;
        self.cur = next;
        if let Some(f) = self.frames.last_mut() {
            f.iter = next;
        }
    }

    /// The innermost instance ends. Slots that several of its iterations
    /// wrote now hold an order-dependent value.
    pub(super) fn exit(&mut self) {
        let d = self.frames.len() - 1;
        let frame = self.frames.pop().expect("exit matches enter");
        self.cur = self.frames.last().map_or(0, |f| f.iter);
        if frame.poisoned {
            let bit = 1u64 << d;
            for s in self.slots.iter_mut().filter(|s| s.poison & bit != 0) {
                s.poison &= !bit;
                s.dead = true;
            }
        }
    }

    pub(super) fn read_cell(&mut self, array: usize, flat: usize) {
        let c = self.cells[array][flat];
        if c.w >= self.cur && c.r >= self.cur {
            return;
        }
        if self.earlier(c.w) {
            self.conflict = true;
        } else if !self.earlier(c.r) {
            self.cells[array][flat].r = self.now;
        }
    }

    pub(super) fn write_cell(&mut self, array: usize, flat: usize) {
        let c = self.cells[array][flat];
        if c.w >= self.cur && c.r >= self.cur {
            return;
        }
        if self.earlier(c.w) || self.earlier(c.r) {
            self.conflict = true;
        } else {
            self.cells[array][flat].w = self.now;
        }
    }

    pub(super) fn read_slot(&mut self, slot: usize) {
        let t = self.slots[slot];
        if t.dead {
            self.conflict = true;
            return;
        }
        if t.w >= self.cur {
            return; // written earlier in this very iteration
        }
        let xw = match (self.place(t.w), self.place(t.x)) {
            (Place::Earlier(_), _) => {
                self.conflict = true;
                return;
            }
            // The record is already a conflict for any later write: keep it.
            (_, Place::Earlier(d)) if t.xw <= self.frames[d].inst => return,
            // The record is pending in the current iteration: merge.
            (_, Place::Current(d)) if t.xw <= self.frames[d].inst => t.xw.min(t.w),
            _ => t.w,
        };
        let s = &mut self.slots[slot];
        s.x = self.now;
        s.xw = xw;
    }

    pub(super) fn write_slot(&mut self, slot: usize) {
        let t = self.slots[slot];
        if t.w < self.cur {
            if let Place::Earlier(d) = self.place(t.x) {
                if t.xw <= self.frames[d].inst {
                    self.conflict = true;
                    return;
                }
            }
            if let Place::Earlier(d) = self.place(t.w) {
                if d >= 64 {
                    self.conflict = true;
                    return;
                }
                self.slots[slot].poison |= 1 << d;
                self.frames[d].poisoned = true;
            }
        }
        let s = &mut self.slots[slot];
        s.w = self.now;
        s.dead = false;
    }

    /// Bind a loop variable for one iteration: a fresh private value.
    /// The outer binding's tag was saved with [`Shadow::slot_tag`].
    pub(super) fn bind_slot(&mut self, slot: usize) {
        self.slots[slot] = SlotTag {
            w: self.now,
            ..SlotTag::default()
        };
    }

    pub(super) fn slot_tag(&self, slot: usize) -> SlotTag {
        self.slots[slot]
    }

    pub(super) fn restore_slot(&mut self, slot: usize, tag: SlotTag) {
        self.slots[slot] = tag;
    }
}
