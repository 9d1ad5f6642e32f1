"""Deadline-bounded waits that wake on what they wait for.

A wait hooks the call that can make its condition true — a router's follow
acknowledgement, a supervisor's respawn — and re-checks the condition each
time that call returns, instead of polling it on a timer.  The deadline only
bounds a wait whose condition never comes.

Hook an object before anything can make the call: the hook is looked up on
each call, so a call already under way when it was installed notifies
nobody.
"""

import threading


class Waiter:
    """A condition the hooked calls notify."""

    def __init__(self) -> None:
        self._condition = threading.Condition()

    def notify(self) -> None:
        with self._condition:
            self._condition.notify_all()

    def until(self, predicate, timeout: float = 30.0) -> bool:
        """Whether ``predicate()`` came true within ``timeout`` seconds; it
        is checked now and after every notification."""
        with self._condition:
            return self._condition.wait_for(predicate, timeout)


def notified_by(owner, name: str, waiter: Waiter = None) -> Waiter:
    """``waiter`` (a new one by default), notified after every call of
    ``owner.name`` — a bound method, or an unset callback slot (``None``) —
    returns or raises.  Set on the instance, so it goes with the object."""
    waiter = waiter or Waiter()
    original = getattr(owner, name)

    def hooked(*args, **kwargs):
        try:
            if original is not None:
                return original(*args, **kwargs)
        finally:
            waiter.notify()

    setattr(owner, name, hooked)
    return waiter
