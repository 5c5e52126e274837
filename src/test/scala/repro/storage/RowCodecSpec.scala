package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.storage.FieldType._

class RowCodecSpec extends AnyFunSuite {

  /** Raw-ScalaCheck runner (scalatestplus is not in the offline cache). */
  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }

  private val mixedSchema = IndexedSeq(IntT, DoubleT, StringT, TimestampT, BoolT, StringT, FloatT, SmallIntT, LongT)
  private val mixedRow = IndexedSeq(42, 3.14, "hello", 1700000000000L, true, "", 2.5f, 7.toShort, -9L)

  test("roundtrip: mixed schema") {
    val c = new RowCodec(mixedSchema)
    assert(c.decode(c.encode(mixedRow)) == mixedRow)
  }

  test("roundtrip: all nulls") {
    val c = new RowCodec(mixedSchema)
    val row = IndexedSeq.fill[Any](mixedSchema.size)(null)
    assert(c.decode(c.encode(row)) == row)
  }

  test("roundtrip: nulls interleaved with values") {
    val c = new RowCodec(mixedSchema)
    val row = IndexedSeq(null, 1.5, null, 5L, null, "x", null, null, 3L)
    assert(c.decode(c.encode(row)) == row)
  }

  test("roundtrip: empty strings are distinct from null strings") {
    val c = new RowCodec(IndexedSeq(StringT, StringT))
    assert(c.decode(c.encode(IndexedSeq("", null))) == IndexedSeq("", null))
  }

  test("roundtrip: utf8 multi-byte strings") {
    val c = new RowCodec(IndexedSeq(StringT, IntT, StringT))
    val row = IndexedSeq("héllo wörld", 1, "日本語テキスト")
    assert(c.decode(c.encode(row)) == row)
  }

  test("header: first byte is field version, second is schema version") {
    val c = new RowCodec(IndexedSeq(IntT), fieldVersion = 3, schemaVersion = 5)
    val b = c.encode(IndexedSeq(1))
    assert(b(0) == 3 && b(1) == 5)
  }

  test("header: bytes 2..5 store the little-endian total row size") {
    val c = new RowCodec(mixedSchema)
    val b = c.encode(mixedRow)
    val size = java.nio.ByteBuffer.wrap(b, 2, 4).order(java.nio.ByteOrder.LITTLE_ENDIAN).getInt
    assert(size == b.length)
  }

  test("sizeOf matches encoded length") {
    val c = new RowCodec(mixedSchema)
    assert(c.sizeOf(mixedRow) == c.encode(mixedRow).length)
  }

  test("version above 63 is rejected (6-byte header contract)") {
    intercept[IllegalArgumentException](new RowCodec(IndexedSeq(IntT), fieldVersion = 64))
  }

  test("decode rejects a truncated buffer") {
    val c = new RowCodec(IndexedSeq(IntT, StringT))
    val b = c.encode(IndexedSeq(1, "abc"))
    intercept[IllegalArgumentException](c.decode(b.dropRight(1)))
  }

  test("decode rejects a version mismatch") {
    val c1 = new RowCodec(IndexedSeq(IntT), schemaVersion = 1)
    val c2 = new RowCodec(IndexedSeq(IntT), schemaVersion = 2)
    intercept[IllegalArgumentException](c2.decode(c1.encode(IndexedSeq(1))))
  }

  test("bitmap size is ceil(nFields/8)") {
    assert(new RowCodec(IndexedSeq.fill(8)(IntT)).bitmapBytes == 1)
    assert(new RowCodec(IndexedSeq.fill(9)(IntT)).bitmapBytes == 2)
    assert(new RowCodec(IndexedSeq.fill(65)(IntT)).bitmapBytes == 9)
  }

  test("int fields are packed at 4 bytes, not 8-byte slots") {
    val c = new RowCodec(IndexedSeq(IntT, IntT))
    // header 6 + bitmap 1 + 2*4 = 15
    assert(c.sizeOf(IndexedSeq(1, 2)) == 15)
  }

  test("string offsets use 1 byte for rows under 256 bytes") {
    val c = new RowCodec(IndexedSeq(StringT))
    // header 6 + bitmap 1 + offset 1 + data 3 = 11
    assert(c.sizeOf(IndexedSeq("abc")) == 11)
  }

  test("string offsets widen to 2 bytes for rows of 256..65535 bytes") {
    val c = new RowCodec(IndexedSeq(StringT))
    val s = "x" * 300
    // header 6 + bitmap 1 + offset 2 + data 300 = 309
    assert(c.sizeOf(IndexedSeq(s)) == 309)
    assert(c.decode(c.encode(IndexedSeq(s))) == IndexedSeq(s))
  }

  test("string offsets widen to 4 bytes for rows above 65535 bytes") {
    val c = new RowCodec(IndexedSeq(StringT))
    val s = "y" * 70000
    assert(c.sizeOf(IndexedSeq(s)) == 6 + 1 + 4 + 70000)
    assert(c.decode(c.encode(IndexedSeq(s))) == IndexedSeq(s))
  }

  test("paper §7.1 example: OpenMLDB row is 255 bytes") {
    // 20 ints, 20 floats, 20 one-byte strings, 5 timestamps
    val schema = IndexedSeq.fill(20)(IntT) ++ IndexedSeq.fill(20)(FloatT) ++
      IndexedSeq.fill(20)(StringT) ++ IndexedSeq.fill(5)(TimestampT)
    val row: IndexedSeq[Any] = IndexedSeq.fill[Any](20)(1) ++ IndexedSeq.fill[Any](20)(1.0f) ++
      IndexedSeq.fill[Any](20)("a") ++ IndexedSeq.fill[Any](5)(0L)
    val c = new RowCodec(schema)
    assert(c.sizeOf(row) == 255) // header 6 + bitmap 9 + 160 + 40 + 40
  }

  test("paper §7.1 example: Spark-model row is 556 bytes (54% saving)") {
    val schema = IndexedSeq.fill(20)(IntT) ++ IndexedSeq.fill(20)(FloatT) ++
      IndexedSeq.fill(20)(StringT) ++ IndexedSeq.fill(5)(TimestampT)
    val row: IndexedSeq[Any] = IndexedSeq.fill[Any](20)(1) ++ IndexedSeq.fill[Any](20)(1.0f) ++
      IndexedSeq.fill[Any](20)("a") ++ IndexedSeq.fill[Any](5)(0L)
    assert(SparkRowSize.estimate(schema, row) == 556)
    val saving = 1.0 - new RowCodec(schema).sizeOf(row).toDouble / SparkRowSize.estimate(schema, row)
    assert(saving > 0.54)
  }

  test("compact row never exceeds the Spark-model row") {
    val c = new RowCodec(mixedSchema)
    assert(c.sizeOf(mixedRow) < SparkRowSize.estimate(mixedSchema, mixedRow))
  }

  private val fieldGen: Gen[FieldType] =
    Gen.oneOf(BoolT, SmallIntT, IntT, FloatT, LongT, DoubleT, TimestampT, StringT)

  private def valueGen(t: FieldType): Gen[Any] = t match {
    case BoolT      => Gen.oneOf(Gen.const(null), Gen.oneOf(true, false))
    case SmallIntT  => Gen.oneOf(Gen.const(null), Gen.chooseNum(Short.MinValue, Short.MaxValue).map(_.toShort))
    case IntT       => Gen.oneOf(Gen.const(null), Gen.chooseNum(Int.MinValue, Int.MaxValue))
    case FloatT     => Gen.oneOf(Gen.const(null), Gen.chooseNum(-1e6f, 1e6f))
    case LongT      => Gen.oneOf(Gen.const(null), Gen.chooseNum(Long.MinValue, Long.MaxValue))
    case DoubleT    => Gen.oneOf(Gen.const(null), Gen.chooseNum(-1e12, 1e12))
    case TimestampT => Gen.oneOf(Gen.const(null), Gen.chooseNum(0L, 4102444800000L))
    case StringT    => Gen.oneOf(Gen.const(null), Gen.alphaNumStr.map(_.take(40)))
  }

  private val rowGen: Gen[(IndexedSeq[FieldType], IndexedSeq[Any])] =
    Gen.nonEmptyListOf(fieldGen).map(_.take(24).toIndexedSeq)
      .flatMap(s => Gen.sequence[IndexedSeq[Any], Any](s.map(valueGen)).map(v => (s, v)))

  test("property: roundtrip over random schemas and rows") {
    check(Prop.forAll(rowGen) { case (schema, values) =>
      val c = new RowCodec(schema)
      c.decode(c.encode(values)) == values
    })
  }

  test("property: sizeOf always equals encoded length") {
    check(Prop.forAll(rowGen) { case (schema, values) =>
      val c = new RowCodec(schema)
      c.sizeOf(values) == c.encode(values).length
    })
  }

  /** Strings that cover empty, non-ASCII (including a surrogate pair) and
    * long values, so rows reach all three offset widths.
    */
  private val stringGen: Gen[String] = Gen.frequency(
    4 -> Gen.alphaNumStr.map(_.take(20)),
    2 -> Gen.const(""),
    2 -> Gen.listOf(Gen.oneOf("é", "ß", "日本", "€", "\uD83D\uDE00", "a")).map(_.mkString),
    1 -> Gen.chooseNum(200, 2000).map("m" * _),
    1 -> Gen.chooseNum(0, 100).map(n => "é" * n + "L" * 66000))

  private def typedValueGen(t: FieldType): Gen[Any] =
    if (t == StringT) Gen.frequency(1 -> Gen.const(null), 4 -> stringGen) else valueGen(t)

  private val typedRowGen: Gen[(IndexedSeq[FieldType], IndexedSeq[Any])] =
    Gen.nonEmptyListOf(fieldGen).map(_.take(12).toIndexedSeq)
      .flatMap(s => Gen.sequence[IndexedSeq[Any], Any](s.map(typedValueGen)).map(v => (s, v)))

  /** Field `i` through the typed read for its type. */
  private def typedRead(c: RowCodec, b: Array[Byte], i: Int): Any =
    if (c.isNull(b, i)) null
    else c.schema(i) match {
      case BoolT              => c.getBool(b, i)
      case SmallIntT          => c.getShort(b, i)
      case IntT               => c.getInt(b, i)
      case FloatT             => c.getFloat(b, i)
      case LongT | TimestampT => c.getLong(b, i)
      case DoubleT            => c.getDouble(b, i)
      case StringT            => c.getString(b, i)
    }

  test("property: every typed single-field read equals the full decode, at all offset widths") {
    val widths = scala.collection.mutable.Set.empty[Int]
    check(Prop.forAll(typedRowGen) { case (schema, values) =>
      val c = new RowCodec(schema)
      val b = c.encode(values)
      val decoded = c.decode(b)
      if (schema.contains(StringT)) widths += (if (b.length < 0x100) 1 else if (b.length < 0x10000) 2 else 4)
      decoded == values && c.sizeOf(values) == b.length && schema.indices.forall { i =>
        val (t, g) = (typedRead(c, b, i), c.get(b, i))
        t == decoded(i) && g == decoded(i) && (t == null || t.getClass == decoded(i).getClass)
      }
    })
    assert(widths == Set(1, 2, 4), s"offset widths seen: $widths")
  }

  test("a typed read of a field of another type fails naming both types") {
    val c = new RowCodec(IndexedSeq(IntT, StringT))
    val b = c.encode(IndexedSeq(1, "x"))
    val e = intercept[IllegalArgumentException](c.getDouble(b, 0))
    assert(e.getMessage.contains("IntT") && e.getMessage.contains("DoubleT"), e.getMessage)
  }

  test("an action-shaped row encodes to its §7.1 size, with no per-value boxes") {
    // user, ts, amount, item, price, flag, category
    val c = new RowCodec(IndexedSeq(StringT, LongT, DoubleT, StringT, DoubleT, BoolT, StringT))
    val row = IndexedSeq("u1234", 1700000000000L, 123.45, "i42", 55.5, true, "c0")
    // header 6 + bitmap 1 + fixed 8+8+8+1 + 3 one-byte offsets + string data 5+3+2
    assert(c.encode(row).length == 6 + 1 + 25 + 3 + 10)
    assert(c.encode(row).length == 45)
  }
}
