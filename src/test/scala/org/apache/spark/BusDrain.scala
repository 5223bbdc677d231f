package org.apache.spark

/** Waits until every queued listener event has been delivered, so that a
  * test's job counter is complete before it is read. The listener bus is
  * `private[spark]`; this one-line bridge is the only reason the tests have
  * a file in Spark's package.
  */
object BusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
