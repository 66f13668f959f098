//! Fixture: a `#[cfg(test)]` field of a struct masks that field only
//! (rule poll-blocking). The mask must end at the field's `,` or at the
//! `}` that closes the literal, so the sleep in `send_gathered`, reached
//! from `poll_once`, is flagged. The sleep in `stall_for` is test code.

use std::sync::Arc;
use std::time::Duration;

pub struct Outbox {
    frames: u32,
    #[cfg(test)]
    stall: Duration,
}

impl Outbox {
    fn new() -> Arc<Outbox> {
        Arc::new(Outbox {
            frames: 0,
            #[cfg(test)]
            stall: Duration::ZERO,
        })
    }

    fn send_gathered(&self) {
        std::thread::sleep(Duration::from_millis(1));
    }

    #[cfg(test)]
    fn stall_for(&self) {
        std::thread::sleep(self.stall);
    }
}

pub fn poll_once() {
    Outbox::new().send_gathered();
    Outbox::new().stall_for();
}
