package repro.storage;

import java.lang.invoke.MethodHandles;
import java.lang.invoke.VarHandle;
import java.nio.ByteOrder;

/**
 * Little-endian reads and writes of fixed-width values at any offset of a
 * byte array. The views are static finals, so the JIT compiles each access
 * to one load or store; a Scala object cannot hold them as constants.
 */
final class LittleEndian {
  private LittleEndian() {}

  private static final VarHandle I16 = view(short[].class);
  private static final VarHandle I32 = view(int[].class);
  private static final VarHandle I64 = view(long[].class);
  private static final VarHandle F32 = view(float[].class);
  private static final VarHandle F64 = view(double[].class);

  private static VarHandle view(Class<?> c) {
    return MethodHandles.byteArrayViewVarHandle(c, ByteOrder.LITTLE_ENDIAN);
  }

  static short getShort(byte[] b, int off) { return (short) I16.get(b, off); }
  static int getInt(byte[] b, int off) { return (int) I32.get(b, off); }
  static long getLong(byte[] b, int off) { return (long) I64.get(b, off); }
  static float getFloat(byte[] b, int off) { return (float) F32.get(b, off); }
  static double getDouble(byte[] b, int off) { return (double) F64.get(b, off); }

  static void putShort(byte[] b, int off, short v) { I16.set(b, off, v); }
  static void putInt(byte[] b, int off, int v) { I32.set(b, off, v); }
  static void putLong(byte[] b, int off, long v) { I64.set(b, off, v); }
  static void putFloat(byte[] b, int off, float v) { F32.set(b, off, v); }
  static void putDouble(byte[] b, int off, double v) { F64.set(b, off, v); }
}
