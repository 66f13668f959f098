//! Handler registration and dispatch.
//!
//! An RSR names a *handler* — the procedure invoked in the destination
//! context with the endpoint and the data buffer as arguments. Handlers are
//! registered per context under string names; dispatch happens inside the
//! context's progress loop (message-driven execution).

use crate::buffer::Buffer;
use crate::context::Context;
use crate::endpoint::{Attached, EndpointId, EndpointRef};
use crate::error::{NexusError, Result};
use crate::rsr::{HandlerName, SlotRing};
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Arguments passed to a handler invocation.
pub struct HandlerArgs<'a> {
    /// The context the handler runs in (usable for reply RSRs, creating
    /// endpoints, enquiry, ...).
    pub context: &'a Context,
    /// The endpoint the RSR was addressed to, including any attached local
    /// address/object.
    pub endpoint: EndpointRef,
    /// The sender's data buffer, positioned at the first byte.
    pub buffer: &'a mut Buffer,
}

type Procedure = dyn Fn(HandlerArgs<'_>) + Send + Sync;

/// A registered handler procedure.
pub type HandlerFn = Arc<Procedure>;

/// A table whose every change bumps `epoch` under the write lock, so a
/// thread's cached [`resolve`] sees the change with one load. `uid` names
/// the table in that cache, unique for the life of the process.
pub(crate) struct Versioned<K, V> {
    map: RwLock<HashMap<K, V>>,
    epoch: AtomicU64,
    uid: u64,
}

impl<K, V> Default for Versioned<K, V> {
    fn default() -> Self {
        static UIDS: AtomicU64 = AtomicU64::new(0);
        let uid = UIDS.fetch_add(1, Ordering::Relaxed);
        let (map, epoch) = (RwLock::new(HashMap::default()), AtomicU64::new(0));
        Versioned { map, epoch, uid }
    }
}

impl<K, V> Versioned<K, V> {
    /// Applies `change` to the table and bumps the epoch (`Release`,
    /// paired with the `Acquire` loads in [`resolve`]).
    pub fn change<R>(&self, change: impl FnOnce(&mut HashMap<K, V>) -> R) -> R {
        let mut map = self.map.write();
        let out = change(&mut map);
        self.epoch.fetch_add(1, Ordering::Release);
        out
    }

    pub fn read(&self) -> RwLockReadGuard<'_, HashMap<K, V>> {
        self.map.read()
    }
}

/// Name → handler table for one context.
#[derive(Default)]
pub struct HandlerRegistry {
    handlers: Versioned<String, HandlerFn>,
}

impl HandlerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a handler under `name`.
    pub fn register<F>(&self, name: &str, f: F)
    where
        F: Fn(HandlerArgs<'_>) + Send + Sync + 'static,
    {
        self.handlers
            .change(|m| m.insert(name.to_owned(), Arc::new(f)));
    }

    /// Removes the handler registered under `name`.
    pub fn unregister(&self, name: &str) -> bool {
        self.handlers.change(|m| m.remove(name).is_some())
    }

    /// Looks up a handler by name.
    pub fn get(&self, name: &str) -> Option<HandlerFn> {
        self.handlers.read().get(name).cloned()
    }

    /// The registered handler names (unordered).
    pub fn names(&self) -> Vec<String> {
        self.handlers.read().keys().cloned().collect()
    }

    /// Number of registered handlers.
    pub fn len(&self) -> usize {
        self.handlers.read().len()
    }

    /// True if no handlers are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One thread's resolution of `(endpoint table, endpoint, handler name)`,
/// valid while both tables are at `epochs`. `Weak` handles only: a closure
/// or attached object dies when its table drops it, not with this slot.
struct Resolved {
    key: (u64, EndpointId, HandlerName),
    epochs: (u64, u64),
    attached: Option<Weak<dyn std::any::Any + Send + Sync>>,
    handler: Weak<Procedure>,
}

impl Resolved {
    /// Strong handles again, unless a table dropped one meanwhile.
    fn upgrade(&self) -> Option<(Option<Attached>, HandlerFn)> {
        let attached = match &self.attached {
            Some(a) => Some(a.upgrade()?),
            None => None,
        };
        Some((attached, self.handler.upgrade()?))
    }
}

thread_local! {
    static RESOLVED: std::cell::RefCell<SlotRing<Resolved>> =
        const { std::cell::RefCell::new(SlotRing::new()) };
    /// Resolutions this thread took the locked path for.
    #[cfg(test)]
    pub(crate) static MISSES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Finds the endpoint and handler a delivered RSR names. A hit in this
/// thread's memo takes no lock and allocates nothing; a miss looks both up
/// under their locks and refills a slot. The epochs are read first, so a
/// change racing a miss leaves an entry that is stale, never one that is
/// wrong.
pub(crate) fn resolve(
    eps: &Versioned<EndpointId, Option<Attached>>,
    handlers: &HandlerRegistry,
    ep: EndpointId,
    name: &HandlerName,
) -> Result<(EndpointRef, HandlerFn)> {
    let handlers = &handlers.handlers;
    let epochs = (
        eps.epoch.load(Ordering::Acquire),
        handlers.epoch.load(Ordering::Acquire),
    );
    RESOLVED.with(|memo| {
        let mut memo = memo.borrow_mut();
        let hit = memo.find(|r| {
            r.epochs == epochs && r.key.0 == eps.uid && r.key.1 == ep && r.key.2 == *name
        });
        let (attached, f) = match hit.and_then(Resolved::upgrade) {
            Some(found) => found,
            None => {
                #[cfg(test)]
                MISSES.with(|n| n.set(n.get() + 1));
                let attached = eps.read().get(&ep).cloned();
                let attached = attached.ok_or(NexusError::UnknownEndpoint(ep.0))?;
                let f = handlers.read().get(name.as_str()).cloned();
                let f = f.ok_or_else(|| NexusError::UnknownHandler(name.to_string()))?;
                memo.put(Resolved {
                    key: (eps.uid, ep, name.clone()),
                    epochs,
                    attached: attached.as_ref().map(Arc::downgrade),
                    handler: Arc::downgrade(&f),
                });
                (attached, f)
            }
        };
        Ok((EndpointRef { id: ep, attached }, f))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn register_lookup_unregister() {
        let reg = HandlerRegistry::new();
        assert!(reg.is_empty());
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        reg.register("ping", move |_args| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(reg.len(), 1);
        assert!(reg.get("ping").is_some());
        assert!(reg.get("pong").is_none());
        assert!(reg.unregister("ping"));
        assert!(!reg.unregister("ping"));
    }

    #[test]
    fn replacing_a_handler_keeps_one_entry() {
        let reg = HandlerRegistry::new();
        reg.register("h", |_| {});
        reg.register("h", |_| {});
        assert_eq!(reg.len(), 1);
        let mut names = reg.names();
        names.sort();
        assert_eq!(names, vec!["h"]);
    }
}
