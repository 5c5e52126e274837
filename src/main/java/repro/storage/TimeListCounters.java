package repro.storage;

import java.lang.invoke.MethodHandles;
import java.lang.invoke.VarHandle;

/**
 * A time list's entry count and highest level in use, as fields of the
 * list itself rather than two atomic objects beside it: an insert then
 * touches one object less, and a key costs two objects less.
 */
abstract class TimeListCounters {
  private volatile long count;
  private volatile int top = 1;

  private static final VarHandle COUNT;
  private static final VarHandle TOP;
  static {
    try {
      MethodHandles.Lookup l = MethodHandles.lookup();
      COUNT = l.findVarHandle(TimeListCounters.class, "count", long.class);
      TOP = l.findVarHandle(TimeListCounters.class, "top", int.class);
    } catch (ReflectiveOperationException e) {
      throw new ExceptionInInitializerError(e);
    }
  }

  final long count() { return count; }
  final void addCount(long n) { COUNT.getAndAdd(this, n); }

  /** Levels in use: raised before a taller node links, never lowered. */
  final int top() { return top; }
  final void raiseTop(int h) {
    int t = top;
    while (h > t && !TOP.compareAndSet(this, t, h)) t = top;
  }
}
