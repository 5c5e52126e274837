package repro.storage;

import java.lang.invoke.MethodHandles;
import java.lang.invoke.VarHandle;

/**
 * What a time list and its nodes share: the level-0 successor as a field
 * of the object itself, and the links for levels 1+ in a plain array
 * ({@link #up}), read and written through an array-element VarHandle. A
 * list is then its own head, and a node taller than one level pays for one
 * array and no wrapper around it.
 */
abstract class SkipLink {
  private volatile SkipLink next0;

  private static final VarHandle NEXT0;
  private static final VarHandle UP = MethodHandles.arrayElementVarHandle(SkipLink[].class);
  static {
    try {
      NEXT0 = MethodHandles.lookup().findVarHandle(SkipLink.class, "next0", SkipLink.class);
    } catch (ReflectiveOperationException e) {
      throw new ExceptionInInitializerError(e);
    }
  }

  /** Links for levels 1 and up (index {@code l - 1}); null when there are none. */
  abstract SkipLink[] up();

  final SkipLink next(int l) { return l == 0 ? next0 : (SkipLink) UP.getVolatile(up(), l - 1); }

  /**
   * Sets this object's successor at level {@code l} while it is not yet
   * linked at that level: the CAS that links it publishes the write.
   */
  final void setNext(int l, SkipLink n) {
    if (l == 0) NEXT0.set(this, n); else UP.set(up(), l - 1, n);
  }

  final boolean casNext(int l, SkipLink expect, SkipLink update) {
    return l == 0 ? NEXT0.compareAndSet(this, expect, update)
                  : UP.compareAndSet(up(), l - 1, expect, update);
  }
}
