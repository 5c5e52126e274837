package repro.core.online

import scala.collection.immutable.HashMap
import repro.storage.{FieldType, RowCodec, TimeList, TimeSeriesStore}

/** An online table: the tablet-server memtable of §7.2. Rows are stored
  * as §7.1 [[RowCodec]] bytes in the two-layer store, keyed by the index
  * column and ordered by ts.
  *
  * The table learns its row layout from the rows it is given: a layout is
  * the column names plus the runtime class of each column's values. A row
  * that no layout encodes exactly (a new or missing column, a value in a
  * column whose values were all null, an `Int` where a `Long` was) gets a
  * new layout under the next schema-version byte, so every row decodes with
  * its own layout and `scan`/`latest` return the values, and their boxed
  * classes, that were put. Versions run from 1 to 63.
  *
  * Readers that know their columns ask for a [[OnlineTable.Column]] once
  * and read fields by ordinal from then on.
  */
final class OnlineTable(val keyCol: String, val tsCol: String) {
  import OnlineTable._

  private val store = new TimeSeriesStore[String, Array[Byte]]

  /** Indexed by version - 1; grown copy-on-write under the table's lock. */
  @volatile private var layouts = new Array[Layout](0)
  /** Every column handle given out, so a new layout can extend them. */
  private val columns = new java.util.HashMap[String, Column]

  /** The row's ts as ingest coerces it. */
  def tsOf(row: Map[String, Any]): Long = tsValue(toString, row.getOrElse(tsCol, null))

  private def tsValue(table: String, ts: Any): Long =
    if (ts == null) throw new IllegalArgumentException(s"$table: row has no ts in column '$tsCol'")
    else RequestEngine.num(ts).toLong

  def put(row: Map[String, Any]): Unit = put(toString, row, null)

  /** Encodes and stores one row under its key and ts, taken from the
    * values the encoding gathers; then hands them, the key's time list and
    * the stored bytes to `stored`, if given, still holding the list's
    * monitor, which it took before the insert. `table` names the table in
    * errors.
    */
  private[online] def put(table: String, row: Map[String, Any], stored: Stored): Unit = {
    val ls = layouts
    var v = ls.length - 1
    while (v >= 0 && !put(ls(v), table, row, stored)) v -= 1
    if (v < 0 && !put(layoutFor(table, row), table, row, stored))
      throw new IllegalStateException(s"$table: a new layout does not encode its own row")
  }

  /** Stores `row` under layout `l`; false, storing nothing, when `l` does
    * not encode the row exactly.
    */
  private def put(l: Layout, table: String, row: Map[String, Any], stored: Stored): Boolean = {
    val vs = l.valuesOf(row)
    val bytes = if (vs == null) null else l.codec.encodeExact(vs)
    if (bytes == null) false
    else {
      val key = String.valueOf(vs(l.keyAt))
      val ts  = tsValue(table, vs(l.tsAt))
      val list = store.listOf(key)
      if (stored == null) list.insert(ts, bytes)
      else list.synchronized { list.insert(ts, bytes); stored(key, list, ts, bytes) }
      true
    }
  }

  /** The key's rows, newest first, or null when the key has none. */
  def series(key: String): TimeList[Array[Byte]] = store.series(key)

  def scan(key: String, lo: Long, hi: Long): Iterator[(Long, Map[String, Any])] =
    store.scan(key, lo, hi).map(e => (e.ts, decode(e.payload)))

  def latest(key: String, atOrBefore: Long): Option[(Long, Map[String, Any])] =
    store.latest(key, atOrBefore).map(e => (e.ts, decode(e.payload)))

  def keys: Long = store.nKeys
  def rows: Long = store.nRows
  /** Bytes of the stored row encodings (array headers not included). */
  def encodedBytes: Long = store.entries.map(_.payload.length.toLong).sum

  /** A stored row back as the map that was put. */
  private def decode(row: Array[Byte]): Map[String, Any] = {
    val l = layouts(row(1) - 1)
    val b = Map.newBuilder[String, Any]
    var i = 0
    while (i < l.names.length) { b += l.names(i) -> l.codec.get(row, i); i += 1 }
    b.result()
  }

  /** The handle through which `name` is read by ordinal. */
  def column(name: String): Column = synchronized {
    var c = columns.get(name)
    if (c == null) {
      c = new Column(name)
      layouts.foreach(c.extend)
      columns.put(name, c)
    }
    c
  }

  /** The layout that encodes `row`, added if no layout does. A new one
    * extends every column handle before it is published, so a reader that
    * meets a row of it can already read the row's columns.
    */
  private def layoutFor(table: String, row: Map[String, Any]): Layout = synchronized {
    layouts.find(_.encodes(row)).getOrElse {
      Seq(keyCol -> "key", tsCol -> "ts").foreach { case (c, role) =>
        require(row.contains(c), s"$table: row has no $role column '$c' (columns: ${row.keys.mkString(", ")})")
      }
      val version = layouts.length + 1
      require(version < 64, s"$table: a ${version}th row layout does not fit the schema-version byte " +
        s"(layouts so far: ${layouts.map(_.describe).mkString("; ")}; new row: ${row.keys.mkString(", ")})")
      val names = row.keys.toArray
      val classes = names.map { n =>
        row(n) match {
          case null => layouts.reverseIterator.map(_.classFor(n)).find(_ != null).orNull
          case x    =>
            require(TypeOf.contains(x.getClass),
              s"$table: column '$n' holds a ${x.getClass.getName}; supported: ${TypeOf.keys.map(_.getSimpleName).mkString(", ")}")
            x.getClass
        }
      }
      val l = new Layout(version, names, classes, names.indexOf(keyCol), names.indexOf(tsCol))
      columns.values.forEach(_.extend(l))
      layouts = layouts :+ l
      l
    }
  }

  override val toString: String = s"OnlineTable(key $keyCol, ts $tsCol)"
}

object OnlineTable {
  import FieldType._

  private val TypeOf: Map[Class[_], FieldType] =
    Seq(BoolT, SmallIntT, IntT, FloatT, LongT, DoubleT, StringT).map(t => RowCodec.boxedClass(t) -> t).toMap

  private val Absent = new Object

  /** Receives a stored row's key, its key's time list, its ts and its
    * bytes, under the list's monitor.
    */
  private[online] trait Stored {
    def apply(key: String, list: TimeList[Array[Byte]], ts: Long, row: Array[Byte]): Unit
  }

  /** One row layout: column names and their value classes, a null class
    * marking a column whose values were all null when the layout was made
    * (encoded as an always-null bool).
    */
  private final class Layout(val version: Int, val names: Array[String], val classes: Array[Class[_]],
                             val keyAt: Int, val tsAt: Int) {
    val codec = new RowCodec(classes.map(c => if (c == null) BoolT else TypeOf(c)).toIndexedSeq,
      schemaVersion = version)

    def classFor(name: String): Class[_] = {
      val i = names.indexOf(name)
      if (i < 0) null else classes(i)
    }

    /** Columns whose values were all null when the layout was made. */
    private val nullOnly = classes.indices.filter(classes(_) == null).toArray

    /** The row's values in layout order, or null when the row has other
      * columns or a value in a column that held only nulls; a value of
      * another class shows when `codec.encodeExact` returns null.
      */
    def valuesOf(row: Map[String, Any]): Array[Any] = {
      val walk = new InOrder
      row match {
        case m: HashMap[String @unchecked, Any @unchecked] =>
          if (m.size != names.length) return null
          m.foreachEntry(walk)
        case _ => // Scala's maps of up to four entries walk by tuples: look up
          if (row.size != names.length) return null
          walk.ok = false
      }
      val vs = walk.vs
      var i = 0
      if (!walk.ok) while (i < names.length) { vs(i) = row.getOrElse(names(i), Absent); i += 1 }
      i = 0
      while (i < nullOnly.length && vs(nullOnly(i)) == null) i += 1
      if (i < nullOnly.length) null else vs
    }

    def encodes(row: Map[String, Any]): Boolean = {
      val vs = valuesOf(row)
      vs != null && codec.encodeExact(vs) != null
    }

    /** Takes the values of a map that lists the layout's columns in order
      * (the names came from a map, and a `HashMap` with the same columns
      * lists them in the same order), which saves a lookup per column.
      */
    private final class InOrder extends ((String, Any) => Unit) {
      val vs = new Array[Any](names.length)
      var ok = true
      private var i = 0
      def apply(k: String, v: Any): Unit = {
        if (ok && k == names(i)) vs(i) = v else ok = false
        i += 1
      }
    }

    def describe: String = names.indices
      .map(i => s"${names(i)}: ${Option(classes(i)).fold("null")(_.getSimpleName)}")
      .mkString(s"v$version (", ", ", ")")
  }

  /** A column across a table's layouts: per layout version, the [[Field]]
    * holding it, or null where the layout lacks it or holds only nulls.
    */
  final class Column private[OnlineTable] (val name: String) {
    @volatile private var byVersion = new Array[Field](1)

    private[OnlineTable] def extend(l: Layout): Unit = {
      val i = l.names.indexOf(name)
      byVersion = byVersion :+ (if (i < 0 || l.classes(i) == null) null else new Field(l.codec, i))
    }

    /** This column's field in a stored row, or null when the row's layout
      * has no value for it.
      */
    def field(row: Array[Byte]): Field = byVersion(row(1))

    /** This column's value in a stored row, as it was put (null if none). */
    def value(row: Array[Byte]): Any = {
      val f = field(row)
      if (f == null) null else f.value(row)
    }
  }

  /** One column's place in one layout: its value read at its offset, and
    * the request engine's coercions of it, read without boxing where the
    * stored type allows.
    */
  final class Field private[OnlineTable] (codec: RowCodec, i: Int) {
    private val t = codec.schema(i)

    def isNull(row: Array[Byte]): Boolean = codec.isNull(row, i)
    /** The value as it was put (boxed). */
    def value(row: Array[Byte]): Any = codec.get(row, i)

    /** A number widened to Double; any other value parses its string form. */
    def double(row: Array[Byte]): Double = t match {
      case DoubleT           => codec.getDouble(row, i)
      case LongT             => codec.getLong(row, i).toDouble
      case IntT              => codec.getInt(row, i).toDouble
      case FloatT            => codec.getFloat(row, i).toDouble
      case SmallIntT         => codec.getShort(row, i).toDouble
      case _                 => RequestEngine.num(value(row))
    }
    def string(row: Array[Byte]): String =
      if (t eq StringT) codec.getString(row, i) else String.valueOf(value(row))
    def bool(row: Array[Byte]): Boolean =
      if (t eq BoolT) codec.getBool(row, i) else value(row).toString.toBoolean
  }
}
