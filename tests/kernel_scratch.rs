//! How much scratch memory `open` and the two miners hold above what they
//! leave behind, counted by a global allocator that tracks live and peak
//! heap bytes. The counter is process-wide, so every case runs inside one
//! `#[test]`, one after another.
//!
//! Each bound sits between what a kernel that reads the corpus and the
//! mined matrix where they lie needs and what one that copies them needs:
//! a copy of the corpus's entries, or of the matrix, costs a whole multiple
//! of the figure the bound is stated against.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use gea::core::session::GeaSession;
use gea::core::ExecConfig;
use gea::sage::clean::CleaningConfig;
use gea::sage::generate::{generate, GeneratorConfig};
use gea::server::engine;
use gea::server::gql::{parse, Request};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        new
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What running `f` cost: the bytes it left live, and the most bytes it
/// held live at once above those (its scratch).
struct Footprint {
    kept: usize,
    scratch: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Footprint) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    let (live, peak) = (LIVE.load(Relaxed), PEAK.load(Relaxed));
    let footprint = Footprint {
        kept: live.saturating_sub(base),
        scratch: peak - live.max(base),
    };
    (out, footprint)
}

fn run(session: &mut GeaSession, line: &str) -> String {
    let Some(Request::Gql(cmd)) = parse(line).unwrap() else {
        panic!("{line:?} is not an algebra command");
    };
    engine::execute(session, &cmd).unwrap_or_else(|e| panic!("{line:?}: {e}"))
}

#[test]
fn kernels_hold_no_copy_of_what_they_read() {
    let (corpus, _) = generate(&GeneratorConfig::demo(42));
    // The corpus's (tag, count) entries: 8 bytes each however they are
    // held, so a sorted copy of them costs this much.
    let entries: usize = corpus.iter().map(|(_, lib)| lib.unique_tags()).sum();
    let entry_bytes = entries * 8;

    // Open: the census streams through one cursor per library. Sorting a
    // copy of every entry costs `entry_bytes` of scratch on its own; the
    // merge needs a few kilobytes. Bound: a quarter of the entries.
    let (session, open) = measure(|| GeaSession::open(corpus, &CleaningConfig::default()));
    let mut session = session.unwrap();
    session.set_exec_config(ExecConfig::serial());
    assert!(
        open.scratch * 4 < entry_bytes,
        "open held {} bytes above the {}-byte session it left; the corpus has {entry_bytes} \
         bytes of entries",
        open.scratch,
        open.kept,
    );

    run(&mut session, "dataset E brain");
    let table = session.enum_table("E").unwrap();
    let matrix_bytes = table.n_tags() * table.n_libraries() * 8;

    // ISA: the scores are per-row and per-column (mean, sd) pairs read
    // against the borrowed matrix, plus one score vector per step. Two
    // z-scored copies of the matrix, one `Vec` per row, cost about 2.5
    // matrices. Bound: one matrix.
    let (_, isa) = measure(|| {
        run(
            &mut session,
            "mine E m with isa seeds=6 t_tags=0.8 t_libs=0.8",
        )
    });
    assert!(
        isa.scratch < matrix_bytes,
        "ISA held {} bytes above its {}-byte result, against a {matrix_bytes}-byte matrix",
        isa.scratch,
        isa.kept,
    );

    // Fascicles: the record-major copy of the table (one matrix), the
    // tolerance vector and the grown seed's two envelope vectors (a tenth
    // of a matrix each at ten libraries), and the reply. Bound: one and a
    // half matrices, so a second copy of the table fails it.
    let (_, fascicles) = measure(|| run(&mut session, "mine E a 50 3 6"));
    assert!(
        fascicles.scratch * 2 < matrix_bytes * 3,
        "fascicles held {} bytes above their {}-byte result, against a {matrix_bytes}-byte \
         matrix",
        fascicles.scratch,
        fascicles.kept,
    );
}
