package org.apache.spark

/** Spark delivers listener events asynchronously; a test reads what its
  * listener counted only after the bus has delivered every event posted
  * so far. `listenerBus` is `private[spark]`, hence this package.
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
