package repro.storage

import java.nio.charset.StandardCharsets

/** Field types supported by the compact row format (§7.1 of the paper).
  *
  * Fixed-width fields are packed contiguously at their natural width (an
  * int costs 4 bytes, not an 8-byte UnsafeRow slot); strings are stored as
  * raw bytes addressed by a minimal-width offset table.
  */
sealed abstract class FieldType(val width: Int) extends Product with Serializable
object FieldType {
  case object BoolT      extends FieldType(1)
  case object SmallIntT  extends FieldType(2)
  case object IntT       extends FieldType(4)
  case object FloatT     extends FieldType(4)
  case object LongT      extends FieldType(8)
  case object DoubleT    extends FieldType(8)
  case object TimestampT extends FieldType(8) // epoch millis
  case object StringT    extends FieldType(-1)
}

/** Compact in-memory row encoding (paper §7.1, Figure 5).
  *
  * Layout: `header (6 B) | null bitmap | fixed-width fields | offset table | string bytes`.
  *
  *  - Header: field version (1 B), schema version (1 B), total row size (4 B).
  *  - Null bitmap: ceil(nFields / 8) bytes; bit i set means field i is NULL.
  *  - Fixed fields: packed at natural width, deterministic offsets computed
  *    once per schema (the paper's "more compact offset calculation").
  *  - Strings: an offset table whose entry width is 1/2/4 bytes depending on
  *    the total row size, holding each string's *end* offset relative to the
  *    string-data base; a string's length is the difference between its end
  *    offset and the previous one, so no per-string length field is stored.
  *
  * The typed single-field reads (`getDouble`, `getString`, ...) read at the
  * field's offset without touching the other fields; each requires field
  * `i` to have the matching type and not be null.
  */
final class RowCodec(val schema: IndexedSeq[FieldType],
                     fieldVersion: Int = 1,
                     schemaVersion: Int = 1) extends Serializable {
  import FieldType._
  import RowCodec._
  require(schema.nonEmpty, "empty schema")
  require(fieldVersion < 64 && schemaVersion < 64, "versions must fit the 6-byte header contract")

  val HeaderBytes = 6
  val bitmapBytes: Int = (schema.size + 7) / 8

  private val types = schema.toArray
  private val classes = types.map(boxedClass)
  val fixedBytes: Int = types.collect { case t if t != StringT => t.width }.sum
  val nStrings: Int   = types.count(_ == StringT)

  /** Per field: a fixed field's byte position in the row, or a string's
    * ordinal in the offset table.
    */
  private val at: Array[Int] = {
    var off = HeaderBytes + bitmapBytes
    var k = 0
    types.map {
      case StringT => k += 1; k - 1
      case t       => off += t.width; off - t.width
    }
  }
  private val offsetsBase = HeaderBytes + bitmapBytes + fixedBytes
  /** The string fields, in offset-table order. */
  private val strings: Array[Int] = types.indices.filter(types(_) eq StringT).toArray

  /** Row size for `strBytes` bytes of string data. The offset width
    * depends on the total, which depends on the offset width; widths only
    * grow, so the fixpoint is reached within two steps.
    */
  private def totalFor(strBytes: Int): Int = {
    var w = 1
    var total = offsetsBase + nStrings * w + strBytes
    while (offsetWidth(total) != w) { w = offsetWidth(total); total = offsetsBase + nStrings * w + strBytes }
    total
  }

  /** Encoded size of `values` without materialising the buffer. */
  def sizeOf(values: IndexedSeq[Any]): Int = {
    require(values.size == types.length, s"arity ${values.size} != ${types.length}")
    var strBytes = 0
    var i = 0
    while (i < types.length) {
      if ((types(i) eq StringT) && values(i) != null) strBytes += utf8Length(values(i).asInstanceOf[String])
      i += 1
    }
    totalFor(strBytes)
  }

  /** Encode one row in a single pass over the values, writing each
    * string's UTF-8 bytes straight into the row. Nulls are allowed for any
    * field (bitmap-marked); any other value must be of its field's class
    * (see [[RowCodec.boxedClass]]).
    */
  def encode(values: IndexedSeq[Any]): Array[Byte] = {
    val b = encodeExact(values.toArray[Any])
    require(b != null, s"values ${values.map(v => if (v == null) "null" else v.getClass.getSimpleName).mkString(", ")}" +
      s" do not have the field types ${schema.mkString(", ")}")
    b
  }

  /** As `encode`, for values held in an array; null, not an error, when a
    * value is not of its field's class.
    */
  def encodeExact(values: Array[Any]): Array[Byte] = {
    if (values.length != types.length)
      throw new IllegalArgumentException(s"arity ${values.length} != ${types.length}")
    // Most strings are ASCII, one byte per char: size the row for that and
    // write them so, and only when one is not, measure the strings' UTF-8
    // lengths and write again.
    var chars = 0
    var k = 0
    while (k < nStrings) {
      values(strings(k)) match {
        case s: String => chars += s.length
        case _         =>
      }
      k += 1
    }
    val b = write(values, chars, ascii = true)
    if (b ne NotAscii) b
    else {
      var strBytes = 0
      k = 0
      while (k < nStrings) {
        val v = values(strings(k))
        if (v != null) strBytes += utf8Length(v.asInstanceOf[String])
        k += 1
      }
      write(values, strBytes, ascii = false)
    }
  }

  /** The row, with `strBytes` bytes of string data; null when a value is
    * not of its field's class, and [[RowCodec.NotAscii]] when `ascii` and
    * a string is not.
    */
  private def write(values: Array[Any], strBytes: Int, ascii: Boolean): Array[Byte] = {
    val total = totalFor(strBytes)
    val b     = new Array[Byte](total)
    b(0) = fieldVersion.toByte
    b(1) = schemaVersion.toByte
    LittleEndian.putInt(b, 2, total)
    var i = 0
    while (i < types.length) {
      val v = values(i)
      val p = at(i)
      if (v == null) b(HeaderBytes + (i >> 3)) = (b(HeaderBytes + (i >> 3)) | (1 << (i & 7))).toByte
      else if (v.getClass ne classes(i)) return null
      else types(i) match {
        case DoubleT    => LittleEndian.putDouble(b, p, v.asInstanceOf[Double])
        case LongT      => LittleEndian.putLong(b, p, v.asInstanceOf[Long])
        case StringT    => () // below
        case BoolT      => b(p) = (if (v.asInstanceOf[Boolean]) 1 else 0).toByte
        case IntT       => LittleEndian.putInt(b, p, v.asInstanceOf[Int])
        case TimestampT => LittleEndian.putLong(b, p, v.asInstanceOf[Long])
        case FloatT     => LittleEndian.putFloat(b, p, v.asInstanceOf[Float])
        case SmallIntT  => LittleEndian.putShort(b, p, v.asInstanceOf[Short])
      }
      i += 1
    }
    val w        = offsetWidth(total)
    val dataBase = offsetsBase + nStrings * w
    var end = 0
    var k = 0
    while (k < nStrings) {
      val v = values(strings(k))
      if (v != null) {
        val s = v.asInstanceOf[String]
        if (!ascii) end += putUtf8(s, b, dataBase + end)
        else if (putAscii(s, b, dataBase + end)) end += s.length
        else return NotAscii
      }
      w match {
        case 1 => b(offsetsBase + k) = end.toByte
        case 2 => LittleEndian.putShort(b, offsetsBase + 2 * k, end.toShort)
        case _ => LittleEndian.putInt(b, offsetsBase + 4 * k, end)
      }
      k += 1
    }
    b
  }

  /** Decode a full row back to values (null for bitmap-marked fields). */
  def decode(bytes: Array[Byte]): IndexedSeq[Any] = {
    require((bytes(0) & 0xff) == fieldVersion && (bytes(1) & 0xff) == schemaVersion, "version mismatch")
    val total = LittleEndian.getInt(bytes, 2)
    require(total == bytes.length, s"row size $total != buffer ${bytes.length}")
    IndexedSeq.tabulate(types.length)(get(bytes, _))
  }

  def isNull(bytes: Array[Byte], i: Int): Boolean = (bytes(HeaderBytes + (i >> 3)) & (1 << (i & 7))) != 0

  /** Field `i` as `decode` returns it, read at its offset. */
  def get(bytes: Array[Byte], i: Int): Any =
    if (isNull(bytes, i)) null
    else types(i) match {
      case BoolT               => getBool(bytes, i)
      case SmallIntT           => getShort(bytes, i)
      case IntT                => getInt(bytes, i)
      case FloatT              => getFloat(bytes, i)
      case LongT | TimestampT  => getLong(bytes, i)
      case DoubleT             => getDouble(bytes, i)
      case StringT             => getString(bytes, i)
    }

  private def fixedAt(i: Int, t: FieldType): Int = {
    if (types(i) ne t) typeError(i, t)
    at(i)
  }
  private def typeError(i: Int, t: FieldType): Nothing =
    throw new IllegalArgumentException(s"field $i is ${types(i)}, not $t")

  def getBool(bytes: Array[Byte], i: Int): Boolean = bytes(fixedAt(i, BoolT)) != 0
  def getShort(bytes: Array[Byte], i: Int): Short  = LittleEndian.getShort(bytes, fixedAt(i, SmallIntT))
  def getInt(bytes: Array[Byte], i: Int): Int      = LittleEndian.getInt(bytes, fixedAt(i, IntT))
  def getFloat(bytes: Array[Byte], i: Int): Float  = LittleEndian.getFloat(bytes, fixedAt(i, FloatT))
  def getDouble(bytes: Array[Byte], i: Int): Double = LittleEndian.getDouble(bytes, fixedAt(i, DoubleT))

  /** A LongT or TimestampT field. */
  def getLong(bytes: Array[Byte], i: Int): Long = {
    if ((types(i) ne LongT) && (types(i) ne TimestampT)) typeError(i, LongT)
    LittleEndian.getLong(bytes, at(i))
  }

  def getString(bytes: Array[Byte], i: Int): String = {
    if (types(i) ne StringT) typeError(i, StringT)
    val w = offsetWidth(LittleEndian.getInt(bytes, 2))
    def endOf(k: Int): Int = w match {
      case 1 => bytes(offsetsBase + k) & 0xff
      case 2 => LittleEndian.getShort(bytes, offsetsBase + 2 * k) & 0xffff
      case _ => LittleEndian.getInt(bytes, offsetsBase + 4 * k)
    }
    val k     = at(i)
    val start = if (k == 0) 0 else endOf(k - 1)
    new String(bytes, offsetsBase + nStrings * w + start, endOf(k) - start, StandardCharsets.UTF_8)
  }
}

object RowCodec {
  import FieldType._

  /** `write`'s answer when a string it was to write as ASCII is not. */
  private val NotAscii = new Array[Byte](0)

  /** The class of the values a field type holds. */
  def boxedClass(t: FieldType): Class[_] = t match {
    case BoolT              => classOf[java.lang.Boolean]
    case SmallIntT          => classOf[java.lang.Short]
    case IntT               => classOf[java.lang.Integer]
    case FloatT             => classOf[java.lang.Float]
    case LongT | TimestampT => classOf[java.lang.Long]
    case DoubleT            => classOf[java.lang.Double]
    case StringT            => classOf[String]
  }

  private def offsetWidth(totalSize: Int): Int =
    if (totalSize < 0x100) 1 else if (totalSize < 0x10000) 2 else 4

  /** Writes `s` at `b(at)`, one byte per char; false at the first char
    * outside ASCII.
    */
  private def putAscii(s: String, b: Array[Byte], at: Int): Boolean = {
    var j = 0
    while (j < s.length) {
      val c = s.charAt(j)
      if (c >= 0x80) return false
      b(at + j) = c.toByte
      j += 1
    }
    true
  }

  /** Writes the UTF-8 bytes of `s` at `b(at)`; returns their count. */
  private def putUtf8(s: String, b: Array[Byte], at: Int): Int = {
    val u = s.getBytes(StandardCharsets.UTF_8)
    System.arraycopy(u, 0, b, at, u.length)
    u.length
  }

  /** UTF-8 length of `s` as `getBytes(UTF_8)` encodes it: a surrogate
    * pair takes 4 bytes and an unpaired surrogate becomes one `?`.
    */
  private def utf8Length(s: String): Int = {
    var n = 0
    var i = 0
    while (i < s.length) {
      val c = s.charAt(i)
      if (c < 0x80) n += 1
      else if (c < 0x800) n += 2
      else if (!Character.isSurrogate(c)) n += 3
      else if (Character.isHighSurrogate(c) && i + 1 < s.length && Character.isLowSurrogate(s.charAt(i + 1))) {
        n += 4; i += 1
      } else n += 1
      i += 1
    }
    n
  }
}

/** The paper's accounting model for a Spark (UnsafeRow-style) row (§7.1
  * "Memory Saving Example"): an 8-byte word per field, a null bitset of
  * 8 bytes per 64 fields, plus raw string bytes.
  */
object SparkRowSize {
  import FieldType._
  def estimate(schema: IndexedSeq[FieldType], values: IndexedSeq[Any]): Int = {
    val n = schema.size
    val nullSet = 8 * ((n + 63) / 64)
    val slots   = 8 * n
    val strData = schema.indices.collect {
      case i if schema(i) == StringT && values(i) != null =>
        values(i).asInstanceOf[String].getBytes(StandardCharsets.UTF_8).length
    }.sum
    nullSet + slots + strData
  }
}
