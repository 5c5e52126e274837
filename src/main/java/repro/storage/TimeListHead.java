package repro.storage;

import java.lang.invoke.MethodHandles;
import java.lang.invoke.VarHandle;

/**
 * A time list as its own head: the level-0 link (from {@link SkipLink}),
 * the entry count, the highest level in use and the head's links for
 * levels 1+ are fields of the list, so a key's list is one 32-byte object
 * until a node taller than one level arrives.
 */
abstract class TimeListHead extends SkipLink {
  /** Most levels a node can have; the head's tower holds the links above level 0. */
  static final int MAX_LEVEL = 16;

  private volatile long count;
  private volatile int top = 1;
  private volatile SkipLink[] tower;

  private static final VarHandle COUNT;
  private static final VarHandle TOP;
  private static final VarHandle TOWER;
  static {
    try {
      MethodHandles.Lookup l = MethodHandles.lookup();
      COUNT = l.findVarHandle(TimeListHead.class, "count", long.class);
      TOP = l.findVarHandle(TimeListHead.class, "top", int.class);
      TOWER = l.findVarHandle(TimeListHead.class, "tower", SkipLink[].class);
    } catch (ReflectiveOperationException e) {
      throw new ExceptionInInitializerError(e);
    }
  }

  final long count() { return count; }
  final void addCount(long n) { COUNT.getAndAdd(this, n); }

  /** Levels in use: raised before a taller node links, never lowered. */
  final int top() { return top; }

  /**
   * Raises the levels in use to {@code h}. A height above 1 first installs
   * the head's tower, once, with one CAS: a tower is never replaced, so no
   * link written into it is lost, and a reader that sees {@code top > 1}
   * sees the tower.
   */
  final void raiseTop(int h) {
    if (h > 1 && tower == null) TOWER.compareAndSet(this, null, new SkipLink[MAX_LEVEL - 1]);
    int t = top;
    while (h > t && !TOP.compareAndSet(this, t, h)) t = top;
  }

  @Override final SkipLink[] up() { return tower; }
}
