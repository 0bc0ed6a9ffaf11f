//! Stackful coroutines: the control transfer under the process runtime.
//!
//! A [`Coroutine`] runs a body on a stack of its own. Passing control
//! between it and the thread that resumes it swaps stack pointers: a few
//! register pushes and pops, no kernel involvement. [`crate::process`] runs
//! every simulated process as one, so a whole simulation executes on the
//! thread that calls `Runtime::run`.
//!
//! Three pieces:
//! * **The stack.** An `mmap`'d [`STACK_SIZE`] bytes (std's default thread
//!   stack) mapped `MAP_NORESERVE`, so resident memory counts only the pages
//!   a body touches, with a `PROT_NONE` guard page at its low end: an
//!   overflow faults (SIGSEGV) instead of corrupting a neighbour.
//! * **The switch.** [`switch`] saves the SysV callee-saved registers (rbx,
//!   rbp, r12–r15), MXCSR and the x87 control word on the current stack,
//!   stores the stack pointer, loads another one and restores the same set
//!   from it. Everything else is caller-saved, so the compiler already
//!   treats the call as clobbering it.
//! * **The entry.** The first switch into a fresh stack "returns" into
//!   [`trampoline`], which calls [`entry`]. `entry` runs the body under
//!   `catch_unwind`, leaves the outcome in the stack's [`Link`] and switches
//!   back for the last time, so a panic never reaches the assembly frames.
//!   The trampoline's CFI marks its return address undefined and its frame
//!   pointer is null, so unwinders and backtraces stop there.
//!
//! Only x86_64 Linux is implemented, and there is deliberately no fallback
//! to threads: that would be a second runtime to keep bit-identical.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("simcore::coro: the coroutine stack switch is implemented for x86_64 Linux only");

use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

/// Usable bytes of every coroutine stack: std's default thread stack.
const STACK_SIZE: usize = 2 << 20;
/// The guard below each stack: one x86_64 base page.
const GUARD: usize = 4096;
/// Initial MXCSR (0x1F80: all exceptions masked, round to nearest) in the
/// low half and x87 control word (0x037F) above it: what a new thread gets.
const FP_CONTROL: usize = 0x037F_0000_1F80;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;
const MAP_FAILED: *mut c_void = !0 as *mut c_void;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, off: i64) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

thread_local! {
    /// The coroutine this thread is running, or null on its own stack.
    static CURRENT: Cell<*const Link> = const { Cell::new(ptr::null()) };
}

/// Control block at the top of each coroutine stack.
struct Link {
    /// The coroutine's stack pointer while it is suspended.
    coro_sp: usize,
    /// The resuming thread's stack pointer while the coroutine runs.
    resumer_sp: usize,
    /// The body, taken by `entry` at the first resume.
    body: Option<Box<dyn FnOnce(Yielder)>>,
    /// The body's outcome, left by `entry` just before its last switch.
    exit: Option<std::thread::Result<()>>,
}

/// A body on its own stack, run in slices by [`Coroutine::resume`].
pub(crate) struct Coroutine {
    /// Start of the mapping: the guard page, then the stack.
    map: *mut c_void,
    link: *mut Link,
    finished: bool,
}

impl Coroutine {
    /// Lay out `body` on a fresh stack; it starts running at the first
    /// [`resume`](Self::resume).
    pub(crate) fn new(body: Box<dyn FnOnce(Yielder)>) -> Coroutine {
        let len = GUARD + STACK_SIZE;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: a new anonymous mapping at an address the kernel picks
        // touches no existing memory.
        let map = unsafe { mmap(ptr::null_mut(), len, PROT_READ | PROT_WRITE, flags, -1, 0) };
        assert!(map != MAP_FAILED, "coroutine stack mmap failed: {}", std::io::Error::last_os_error());
        // SAFETY: the first page lies inside the mapping just made, which
        // nothing references yet.
        let rc = unsafe { mprotect(map, GUARD, PROT_NONE) };
        assert_eq!(rc, 0, "coroutine guard page mprotect failed: {}", std::io::Error::last_os_error());

        // The link sits at the 16-aligned top; the stack grows down from it.
        // Below it goes the frame `switch` restores on the first resume:
        // FP control, r15, r14, r13, r12 (the link, entry's argument), rbx,
        // rbp (null, ending frame-pointer chains), then the return address.
        // `ret` leaves rsp at the 16-aligned top, so the trampoline's call
        // hands `entry` a correctly aligned stack.
        let top = (map as usize + len - size_of::<Link>()) & !15;
        let link = top as *mut Link;
        let frame = [FP_CONTROL, 0, 0, 0, top, 0, 0, trampoline as *const () as usize];
        let sp = top - size_of_val(&frame);
        // SAFETY: `top` is 16-aligned, at least Link's alignment, and the
        // link and the frame below it lie in the writable part of the
        // mapping, which only this function has seen.
        unsafe {
            link.write(Link { coro_sp: sp, resumer_sp: 0, body: Some(body), exit: None });
            (sp as *mut [usize; 8]).write(frame);
        }
        Coroutine { map, link, finished: false }
    }

    /// The body returned or panicked.
    pub(crate) fn is_finished(&self) -> bool {
        self.finished
    }

    /// Run the body until it suspends (`None`) or ends (`Some`: `Ok` if it
    /// returned, the panic payload if it panicked).
    pub(crate) fn resume(&mut self) -> Option<std::thread::Result<()>> {
        assert!(!self.finished, "resumed a finished coroutine");
        let outer = CURRENT.replace(self.link);
        // SAFETY: the mapping is live (only Drop unmaps it) and the body is
        // suspended, not running: `&mut self` is exclusive across the whole
        // switch, so no other resume can be in progress, and a suspended or
        // fresh coroutine's `coro_sp` holds a frame `switch` or `new` laid
        // out. The switch back lands here with every callee-saved register
        // restored.
        unsafe { switch(&raw mut (*self.link).resumer_sp, (*self.link).coro_sp) };
        CURRENT.set(outer);
        // SAFETY: the body is suspended or finished, so it no longer
        // touches the link.
        let exit = unsafe { (*self.link).exit.take() };
        self.finished = exit.is_some();
        exit
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // An unfinished body still owns what its frames hold, and some of
        // that may be borrowed or pinned; freeing the stack without running
        // those destructors could free memory still in use. So its stack
        // leaks, as a parked thread that is never joined leaks its own.
        if self.finished {
            // SAFETY: the body has returned and `entry` holds nothing, so no
            // live value or reference points into the mapping.
            unsafe { munmap(self.map, GUARD + STACK_SIZE) };
        }
    }
}

/// A coroutine's handle on itself: the body's only way to suspend.
pub(crate) struct Yielder {
    link: *const Link,
}

// SAFETY: a Yielder's one operation, `suspend`, dereferences `link` only
// after checking that the calling thread is running this very coroutine; on
// any other thread, or outside the body, it panics without touching it.
unsafe impl Send for Yielder {}
// SAFETY: as for Send; `&Yielder` offers nothing beyond `suspend`.
unsafe impl Sync for Yielder {}
// A Yielder holds no state a caught panic could leave half-updated.
impl std::panic::UnwindSafe for Yielder {}
impl std::panic::RefUnwindSafe for Yielder {}

impl Yielder {
    /// Switch back to the resumer; returns at the next resume.
    pub(crate) fn suspend(&self) {
        assert!(
            CURRENT.get() == self.link,
            "a simulated process may only park itself, from its own body"
        );
        let link = self.link as *mut Link;
        // SAFETY: CURRENT equals our link only while this thread runs the
        // body of the coroutine owning it (resume sets and restores it), so
        // the mapping is live, `resumer_sp` holds the frame resume saved, and
        // the next resume reads the `coro_sp` we store.
        unsafe { switch(&raw mut (*link).coro_sp, (*link).resumer_sp) };
    }
}

/// The first Rust frame of every coroutine, called by [`trampoline`].
extern "C" fn entry(link: *mut Link) -> ! {
    // SAFETY: `new` passed this coroutine's own link, and resume switched
    // here exactly once, so the body is still in place.
    let body = unsafe { (*link).body.take() }.expect("a coroutine body runs once");
    let exit = catch_unwind(AssertUnwindSafe(move || body(Yielder { link })));
    // SAFETY: as above; resume reads `exit` only after the switch. Nothing
    // on this stack owns anything any more: the body was consumed and the
    // outcome moved into the link.
    unsafe {
        (*link).exit = Some(exit);
        switch(&raw mut (*link).coro_sp, (*link).resumer_sp);
    }
    unreachable!("a finished coroutine was resumed");
}

/// Where the first switch into a fresh stack returns to: moves the link
/// (parked in r12 by [`Coroutine::new`]) into the argument register and
/// calls [`entry`], which never returns. The CFI ends the unwind chain.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call {entry}",
        "ud2",
        ".cfi_endproc",
        entry = sym entry,
    )
}

/// Save the callee-saved state on the current stack, store the stack
/// pointer in `*save`, then load `to` and restore the state saved there.
///
/// # Safety
/// `save` must be valid for a write, and `to` must be a stack pointer that
/// `switch` stored, or that [`Coroutine::new`] laid out, whose stack is
/// mapped and not running.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save: *mut usize, to: usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lowest page of every coroutine stack is mapped inaccessible, so
    /// an overflow faults there instead of running into the next mapping.
    #[test]
    fn every_stack_has_a_guard_page_below_it() {
        let mut co = Coroutine::new(Box::new(|_| {}));
        let lo = co.map as usize;
        let guard = format!("{:x}-{:x} ---p", lo, lo + GUARD);
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        assert!(maps.lines().any(|l| l.starts_with(&guard)), "no mapping `{guard}` in:\n{maps}");
        assert!(matches!(co.resume(), Some(Ok(()))));
    }
}
