//! The per-program front-end shared by every backend that runs a program.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use parsecs_core::{TraceArena, TraceError};
use parsecs_isa::Program;

/// One fuel budget's arena: built at most once, by whichever cell asks
/// first, and cached — a failed build included — for every later cell.
type Slot = Arc<OnceLock<Result<Arc<TraceArena>, TraceError>>>;

/// The configuration-independent front-end of one program: its
/// functional pre-execution sectioned into a [`TraceArena`].
///
/// The arena depends only on the program and the fuel budget, never on
/// the chip, so [`crate::Runner`] and [`crate::Sweep`] hand every backend
/// that runs one program the same `FrontEnd`. [`FrontEnd::arena`] builds
/// the arena for a fuel budget on first request and then serves it,
/// read-only, to every later request at that budget; the sweep frees a
/// row's arenas as soon as the row's last cell finishes.
///
/// ```
/// use parsecs_driver::FrontEnd;
/// use parsecs_workloads::sum;
///
/// let program = sum::fork_program(&[4, 2, 6, 4, 5]);
/// let front = FrontEnd::new(&program);
/// let first = front.arena(100_000)?;
/// let again = front.arena(100_000)?;
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// assert_eq!(front.builds(), 1);
/// # Ok::<(), parsecs_core::TraceError>(())
/// ```
#[derive(Debug)]
pub struct FrontEnd<'p> {
    program: &'p Program,
    arenas: Mutex<Vec<(u64, Slot)>>,
    builds: AtomicUsize,
}

impl<'p> FrontEnd<'p> {
    /// A share over `program` holding no arena yet.
    pub fn new(program: &'p Program) -> FrontEnd<'p> {
        FrontEnd {
            program,
            arenas: Mutex::new(Vec::new()),
            builds: AtomicUsize::new(0),
        }
    }

    /// The program this share pre-executes.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The program's arena under `fuel`: built by the first caller at
    /// that budget, while concurrent callers at the same budget wait for
    /// it, then shared.
    ///
    /// # Errors
    ///
    /// The build's [`TraceError`] — the same one for every caller at that
    /// budget (e.g. the program does not halt within `fuel`).
    pub fn arena(&self, fuel: u64) -> Result<Arc<TraceArena>, TraceError> {
        let slot = {
            let mut arenas = self.arenas.lock().unwrap_or_else(PoisonError::into_inner);
            match arenas.iter().find(|(budget, _)| *budget == fuel) {
                Some((_, slot)) => slot.clone(),
                None => {
                    let slot = Slot::default();
                    arenas.push((fuel, slot.clone()));
                    slot
                }
            }
        };
        slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            TraceArena::from_program(self.program, fuel).map(Arc::new)
        })
        .clone()
    }

    /// Number of arena builds this share has run, failed ones included.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Drops the share's hold on every arena: each is freed once the last
    /// caller still using it lets go of its [`Arc`].
    pub(crate) fn release(&self) {
        let released =
            std::mem::take(&mut *self.arenas.lock().unwrap_or_else(PoisonError::into_inner));
        // Freed here, after the lock is released.
        drop(released);
    }
}
