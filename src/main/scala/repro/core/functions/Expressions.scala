package repro.core.functions

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions.{Expression, TernaryExpression, UnaryExpression, BinaryExpression}
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.catalyst.util.GenericArrayData
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

/** OpenMLDB scalar SQL extensions as Catalyst `Expression`s, registered
  * directly in `spark.sessionState.functionRegistry` (the paper's SQL-
  * extension layer, §4.1 (4)/(5)). All are CodegenFallback — correctness
  * over codegen for these string-shaping helpers.
  */
object Expressions {

  /** split_by_key(input, delim, kv_delim): split by `delim`, keep the key
    * of each key-value segment, return ARRAY<STRING>.
    */
  case class SplitByKey(first: Expression, second: Expression, third: Expression)
      extends TernaryExpression with CodegenFallback {
    override def dataType: DataType = ArrayType(StringType, containsNull = false)
    override def nullable: Boolean = true
    override def prettyName: String = "split_by_key"
    override protected def nullSafeEval(s: Any, d: Any, kv: Any): Any = {
      val parts = AggCore.splitByKey(s.toString, d.toString, kv.toString)
      new GenericArrayData(parts.map(p => UTF8String.fromString(p)).toArray[Any])
    }
    override protected def withNewChildrenInternal(
        f: Expression, s: Expression, t: Expression): Expression = copy(f, s, t)
  }

  /** multiclass_label(col): dense non-negative int class label (§4.1 (5)). */
  case class MulticlassLabel(child: Expression) extends UnaryExpression with CodegenFallback {
    override def dataType: DataType = IntegerType
    override def nullable: Boolean = true
    override def prettyName: String = "multiclass_label"
    override protected def nullSafeEval(v: Any): Any = AggCore.multiclassLabel(v match {
      case s: UTF8String => s.toString
      case d: Decimal    => d.toJavaBigDecimal
      case other         => other
    })
    override protected def withNewChildInternal(c: Expression): Expression = copy(c)
  }

  /** sig_label(col): label column retained as-is, rendered to string. */
  case class SigLabel(child: Expression) extends UnaryExpression with CodegenFallback {
    override def dataType: DataType = StringType
    override def nullable: Boolean = true
    override def prettyName: String = "sig_label"
    override protected def nullSafeEval(v: Any): Any = UTF8String.fromString(v.toString)
    override protected def withNewChildInternal(c: Expression): Expression = copy(c)
  }

  /** sig_continuous(idx, col): one-dimensional dense feature "idx:value". */
  case class SigContinuous(left: Expression, right: Expression)
      extends BinaryExpression with CodegenFallback {
    override def dataType: DataType = StringType
    override def nullable: Boolean = true
    override def prettyName: String = "sig_continuous"
    override protected def nullSafeEval(idx: Any, v: Any): Any =
      UTF8String.fromString(s"$idx:$v")
    override protected def withNewChildrenInternal(l: Expression, r: Expression): Expression =
      copy(l, r)
  }

  /** sig_discrete(base, col, dim): hashed high-dimensional one-hot term
    * "(base + hash(col) mod dim):1" (feature hashing, §4.1 (5)(ii)).
    */
  case class SigDiscrete(first: Expression, second: Expression, third: Expression)
      extends TernaryExpression with CodegenFallback {
    override def dataType: DataType = StringType
    override def nullable: Boolean = true
    override def prettyName: String = "sig_discrete"
    override protected def nullSafeEval(base: Any, v: Any, dim: Any): Any = {
      val b = base.asInstanceOf[Number].intValue()
      val d = dim.asInstanceOf[Number].intValue()
      UTF8String.fromString(s"${b + AggCore.featureHash(v.toString, d)}:1")
    }
    override protected def withNewChildrenInternal(
        f: Expression, s: Expression, t: Expression): Expression = copy(f, s, t)
  }

  /** Register the scalar extensions in the session's function registry. */
  def register(spark: SparkSession): Unit = {
    val registry = org.apache.spark.sql.ReproShim.classic(spark).sessionState.functionRegistry
    registry.createOrReplaceTempFunction("split_by_key",
      (es: Seq[Expression]) => SplitByKey(es(0), es(1), es(2)), "built-in")
    registry.createOrReplaceTempFunction("multiclass_label",
      (es: Seq[Expression]) => MulticlassLabel(es.head), "built-in")
    registry.createOrReplaceTempFunction("sig_label",
      (es: Seq[Expression]) => SigLabel(es.head), "built-in")
    registry.createOrReplaceTempFunction("sig_continuous",
      (es: Seq[Expression]) => SigContinuous(es(0), es(1)), "built-in")
    registry.createOrReplaceTempFunction("sig_discrete",
      (es: Seq[Expression]) => SigDiscrete(es(0), es(1), es(2)), "built-in")
  }
}
