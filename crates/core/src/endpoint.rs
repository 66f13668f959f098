//! Communication endpoints.
//!
//! An endpoint is the receive side of a communication link. Endpoints are
//! created within a context, cannot leave it (only startpoints are mobile),
//! and may have a *local address* — an arbitrary object — attached, in
//! which case startpoints bound to the endpoint act as global names for
//! that object (§2.2).

use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Identifies an endpoint within its context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u64);

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// Type of the object attachable to an endpoint as its "local address".
pub type Attached = Arc<dyn Any + Send + Sync>;

/// The endpoint view passed to handlers.
#[derive(Clone)]
pub struct EndpointRef {
    /// The endpoint's id within the running context.
    pub id: EndpointId,
    /// The attached local object, if any.
    pub attached: Option<Attached>,
}

impl EndpointRef {
    /// Downcasts the attached object to a concrete type.
    pub fn attached_as<T: Send + Sync + 'static>(&self) -> Option<Arc<T>> {
        self.attached.clone().and_then(|a| a.downcast::<T>().ok())
    }
}

impl fmt::Debug for EndpointRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EndpointRef")
            .field("id", &self.id)
            .field("attached", &self.attached.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attached_downcast() {
        let r = EndpointRef {
            id: EndpointId(1),
            attached: Some(Arc::new(42u64) as Attached),
        };
        assert_eq!(*r.attached_as::<u64>().unwrap(), 42);
        assert!(r.attached_as::<String>().is_none());
        let none = EndpointRef {
            id: EndpointId(2),
            attached: None,
        };
        assert!(none.attached_as::<u64>().is_none());
    }

    #[test]
    fn display_and_ordering() {
        assert_eq!(EndpointId(5).to_string(), "ep5");
        assert!(EndpointId(1) < EndpointId(2));
    }
}
